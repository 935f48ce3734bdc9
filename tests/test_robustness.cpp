// Hardened-serving robustness: deterministic fault injection (allocation
// failures and phase-boundary throws at every PB phase, every tuple
// format, at one and two threads), memory-budget degradation at plan time
// and run time, deadlines and cooperative cancellation, strong exception
// safety (leases returned, plan cache consistent, the next non-faulted
// run bit-identical to a fresh executor), strict input validation, and
// malformed matrix-market rejection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "matrix/matrix_market.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

using namespace std::chrono_literals;

/// Re-arms nothing and clears everything on scope exit, so a failed
/// assertion can never leak an armed injector into the next test.
struct FaultGuard {
  FaultGuard() { FaultInjector::reset(); }
  ~FaultGuard() { FaultInjector::reset(); }
};

/// The clean product of (op, p) computed by a fresh executor — the
/// bit-identity oracle the survive-then-serve checks compare against.
mtx::CsrMatrix fresh_run(const SpGemmProblem& p, const SpGemmOp& op) {
  SpGemmExecutor exec;
  return exec.run(p, op);
}

SpGemmOp pb_op(pb::FormatPolicy format = pb::FormatPolicy::kAuto,
               const std::string& semiring = "plus_times") {
  SpGemmOp op;
  op.algo = "pb";
  op.semiring = semiring;
  op.pb.format = format;
  return op;
}

// ---- injected allocation failures: degrade, recover, stay identical -------

// An allocation failure at the n-th budgeted workspace allocation makes
// the run re-execute through the row-wise fallback (degrade_reason
// "oom"); the executor keeps the cached PB plan, so the immediately
// following non-faulted run serves the PB path bit-identically to a
// fresh executor.  Swept over several fault indices so the failure lands
// in different phases.
TEST(ExecutorFault, AllocFailureDegradesThenNextRunIsIdentical) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 41);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  const mtx::CsrMatrix ref = fresh_run(p, op);
  for (const std::int64_t n : {0, 1, 2, 4, 8}) {
    FaultGuard guard;
    SpGemmExecutor exec;  // cold pool: the run must allocate
    FaultInjector::fail_alloc_after(n);
    RunInfo info;
    const mtx::CsrMatrix c = exec.run(p, op, &info);
    FaultInjector::reset();  // n past the run's allocation count: disarm
    EXPECT_TRUE(mtx::equal_exact(c, ref)) << "fault n = " << n;
    if (n == 0) {  // the first allocation always exists -> always fires
      EXPECT_TRUE(info.degraded);
      EXPECT_EQ(info.degrade_reason, "oom");
      EXPECT_NE(info.algo, "pb");
    }
    EXPECT_EQ(exec.pool_stats().in_flight, 0u);

    // Survive-then-serve: the same executor, un-faulted, returns to the
    // PB plan and reproduces the fresh result exactly.
    RunInfo retry;
    EXPECT_TRUE(mtx::equal_exact(exec.run(p, op, &retry), ref));
    EXPECT_FALSE(retry.degraded);
    if (info.degraded) EXPECT_TRUE(retry.used_pb);
    const ExecutorStats es = exec.stats();
    EXPECT_EQ(es.degraded_runs, es.oom_fallbacks);
  }
}

// Every tuple format's stream allocation is covered by the degradation
// path — including the 8 B key-only stream (boolean semiring) and the
// f32 value mode.
TEST(ExecutorFault, AllocFailureDegradesForEveryTupleFormat) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 5.0, 42);
  const SpGemmProblem p = SpGemmProblem::square(a);
  struct Case {
    pb::FormatPolicy format;
    const char* semiring;
  };
  for (const Case& cs :
       {Case{pb::FormatPolicy::kWide, "plus_times"},
        Case{pb::FormatPolicy::kNarrow, "plus_times"},
        Case{pb::FormatPolicy::kF32, "plus_times"},
        Case{pb::FormatPolicy::kKeyOnly, "bool_or_and"}}) {
    const SpGemmOp op = pb_op(cs.format, cs.semiring);
    const mtx::CsrMatrix ref = fresh_run(p, op);
    FaultGuard guard;
    SpGemmExecutor exec;
    FaultInjector::fail_alloc_after(0);
    RunInfo info;
    const mtx::CsrMatrix c = exec.run(p, op, &info);
    EXPECT_TRUE(mtx::equal_exact(c, ref)) << cs.semiring;
    EXPECT_TRUE(info.degraded) << cs.semiring;
    EXPECT_EQ(info.degrade_reason, "oom");
    EXPECT_EQ(exec.pool_stats().in_flight, 0u);
    EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), ref)) << cs.semiring;
  }
}

// ---- injected phase-boundary throws: propagate typed, stay consistent -----

// A FaultInjectedError raised at a phase boundary is NOT absorbed by the
// degradation path (it is not a bad_alloc): the run propagates it, every
// lease is returned, the plan cache stays consistent, and the next run
// on the same executor serves the exact fresh-executor product.
TEST(ExecutorFault, PhaseThrowPropagatesAndExecutorRecovers) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 43);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  const mtx::CsrMatrix ref = fresh_run(p, op);
  for (const FaultPoint point :
       {FaultPoint::kPlanBuild, FaultPoint::kExpand,
        FaultPoint::kSortCompress, FaultPoint::kConvert}) {
    FaultGuard guard;
    SpGemmExecutor exec;
    FaultInjector::throw_at(point);
    EXPECT_THROW(exec.run(p, op), FaultInjectedError)
        << fault_point_name(point);
    EXPECT_EQ(exec.pool_stats().in_flight, 0u) << fault_point_name(point);
    EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), ref))
        << fault_point_name(point);
  }
}

// ---- per-format contracts at one and two threads -------------------------

/// One tuple format forced explicitly (never through auto), at a thread
/// count.  Key-only needs a value-free semiring, so it runs bool_or_and.
struct ContractCase {
  pb::FormatPolicy policy;
  pb::TupleFormat format;
  const char* semiring;
  const char* name;
  int threads;
};

void PrintTo(const ContractCase& cs, std::ostream* os) {
  *os << cs.name << " at " << cs.threads << " thread(s)";
}

class PbContract : public ::testing::TestWithParam<ContractCase> {};

// Every phase fault hook fires for every format: throw_at(phase) surfaces
// as the typed FaultInjectedError from SpGemmExecutor::run, every lease
// comes back, and the next run on the same executor is bit-identical to
// an unfaulted one.
TEST_P(PbContract, PhaseFaultSurfacesTypedThenNextRunIsIdentical) {
  const ContractCase& cs = GetParam();
  const ThreadCountGuard threads(cs.threads);
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 44);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op(cs.policy, cs.semiring);
  RunInfo clean;
  const mtx::CsrMatrix ref = SpGemmExecutor().run(p, op, &clean);
  ASSERT_TRUE(clean.used_pb);
  ASSERT_EQ(clean.pb_stats.format, cs.format);
  for (const FaultPoint point : {FaultPoint::kExpand,
                                 FaultPoint::kSortCompress,
                                 FaultPoint::kConvert}) {
    FaultGuard guard;
    SpGemmExecutor exec;
    FaultInjector::throw_at(point);
    EXPECT_THROW(exec.run(p, op), FaultInjectedError)
        << fault_point_name(point);
    EXPECT_EQ(exec.pool_stats().in_flight, 0u) << fault_point_name(point);
    EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), ref))
        << fault_point_name(point);
  }
}

// The phases run one after another, so their seconds sum to the run's
// total, which fits inside the run's wall time measured from outside.
TEST_P(PbContract, PhaseSecondsSumToTotal) {
  const ContractCase& cs = GetParam();
  const ThreadCountGuard threads(cs.threads);
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 44);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op(cs.policy, cs.semiring);
  SpGemmExecutor exec;
  exec.prepare(p, op);
  RunInfo info;
  const auto t0 = std::chrono::steady_clock::now();
  (void)exec.run(p, op, &info);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(info.used_pb);
  const pb::PbTelemetry& t = info.pb_stats;
  EXPECT_EQ(t.format, cs.format);
  EXPECT_GT(t.expand.seconds, 0.0);
  EXPECT_GE(t.sort.seconds, 0.0);
  EXPECT_GE(t.compress.seconds, 0.0);
  EXPECT_GT(t.convert.seconds, 0.0);
  EXPECT_NEAR(t.total_seconds(),
              t.symbolic.seconds + t.expand.seconds + t.sort.seconds +
                  t.compress.seconds + t.convert.seconds,
              1e-12);
  EXPECT_LE(t.total_seconds(), wall.count());
}

std::vector<ContractCase> contract_cases() {
  std::vector<ContractCase> cases;
  for (const int threads : {1, 2}) {
    cases.push_back({pb::FormatPolicy::kWide, pb::TupleFormat::kWide,
                     "plus_times", "wide", threads});
    cases.push_back({pb::FormatPolicy::kNarrow, pb::TupleFormat::kNarrow,
                     "plus_times", "narrow", threads});
    cases.push_back({pb::FormatPolicy::kKeyOnly, pb::TupleFormat::kKeyOnly,
                     "bool_or_and", "keyonly", threads});
    cases.push_back({pb::FormatPolicy::kF32, pb::TupleFormat::kNarrowF32,
                     "plus_times", "f32", threads});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Formats, PbContract, ::testing::ValuesIn(contract_cases()),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      return std::string(info.param.name) + "_t" +
             std::to_string(info.param.threads);
    });

// ---- deadlines and cancellation -------------------------------------------

// A per-run timeout with forced-slow bins unwinds with DeadlineError,
// returns every lease, and leaves the executor serving.
TEST(ExecutorDeadline, TimeoutUnwindsWithDeadlineErrorThenServes) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 46);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  const mtx::CsrMatrix ref = fresh_run(p, op);
  FaultGuard guard;
  SpGemmExecutor exec;
  exec.prepare(p, op);  // plan outside the deadline window
  FaultInjector::slow_bin(20);
  RunOptions ropts;
  ropts.timeout = 1ms;
  EXPECT_THROW(exec.run(p, op, ropts), DeadlineError);
  FaultInjector::reset();
  EXPECT_EQ(exec.pool_stats().in_flight, 0u);
  EXPECT_GE(exec.stats().cancelled, 1u);
  EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), ref));
}

// An absolute deadline already in the past stops the run before any
// numeric work; DeadlineError is a CancelledError, so a caller catching
// the broader type sees both.
TEST(ExecutorDeadline, ExpiredDeadlineStopsBeforeWork) {
  const mtx::CsrMatrix a = testutil::exact_er(100, 100, 4.0, 47);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  RunOptions ropts;
  ropts.deadline = std::chrono::steady_clock::now() - 1s;
  EXPECT_THROW(exec.run(p, pb_op(), ropts),
               DeadlineError);
  EXPECT_THROW(exec.run(p, pb_op(), ropts),
               CancelledError);
  EXPECT_EQ(exec.stats().cancelled, 2u);
  EXPECT_EQ(exec.pool_stats().in_flight, 0u);
}

// A pre-fired external token cancels the run; the executor's own
// cancel() only affects runs in flight at the moment it is called —
// later runs get a fresh cancellation epoch.
TEST(ExecutorDeadline, ExternalTokenAndEpochCancellation) {
  const mtx::CsrMatrix a = testutil::exact_er(100, 100, 4.0, 48);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  SpGemmExecutor exec;
  const mtx::CsrMatrix ref = exec.run(p, op);

  CancelToken tok;
  tok.request_cancel();
  RunOptions ropts;
  ropts.cancel = &tok;
  EXPECT_THROW(exec.run(p, op, ropts), CancelledError);
  EXPECT_EQ(exec.pool_stats().in_flight, 0u);

  exec.cancel();  // no run in flight: must not poison future runs
  EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), ref));
}

// Cancellation racing real work: each iteration either completes with
// the exact product or unwinds with CancelledError — never a partial
// result, never a leaked lease — and the executor serves afterwards.
TEST(ExecutorCancelStress, RacingCancelEitherCompletesOrUnwindsCleanly) {
  const mtx::CsrMatrix a = testutil::exact_er(500, 500, 8.0, 49);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  SpGemmExecutor exec;
  const mtx::CsrMatrix ref = exec.run(p, op);  // warm plan + pool
  for (int i = 0; i < 8; ++i) {
    CancelToken tok;
    RunOptions ropts;
    ropts.cancel = &tok;
    std::thread killer([&tok, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(100 * i));
      tok.request_cancel();
    });
    try {
      const mtx::CsrMatrix c = exec.run(p, op, ropts);
      EXPECT_TRUE(mtx::equal_exact(c, ref)) << "iteration " << i;
    } catch (const CancelledError&) {
      // Acceptable: the token fired inside the run.
    }
    killer.join();
    EXPECT_EQ(exec.pool_stats().in_flight, 0u) << "iteration " << i;
  }
  EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), ref));
}

// ---- memory budget: plan-time and run-time degradation --------------------

// A budget the PB tuple stream cannot fit downgrades the plan to the
// row-wise fallback at analysis time (reason "budget"); the result is
// still the exact product.
TEST(ExecutorBudget, TinyBudgetDegradesAtPlanTime) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 50);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  const mtx::CsrMatrix ref = fresh_run(p, op);
  ExecutorOptions eo;
  eo.mem_budget_bytes = 64 * 1024;  // far below the expand stream
  SpGemmExecutor exec(eo);
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  EXPECT_TRUE(mtx::equal_exact(c, ref));
  EXPECT_TRUE(info.degraded);
  EXPECT_EQ(info.degrade_reason, "budget");
  EXPECT_FALSE(info.used_pb);
  EXPECT_NE(info.algo, "pb");
  EXPECT_GE(exec.stats().degraded_plans, 1u);
  EXPECT_EQ(exec.pool_stats().in_flight, 0u);
}

// A budget with ample headroom changes nothing: the PB plan runs and the
// product matches an unbudgeted executor bit for bit.
TEST(ExecutorBudget, AmpleBudgetRunsThePbPlanUnchanged) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 51);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  const mtx::CsrMatrix ref = fresh_run(p, op);
  ExecutorOptions eo;
  eo.mem_budget_bytes = std::size_t{1} << 30;
  SpGemmExecutor exec(eo);
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  EXPECT_TRUE(mtx::equal_exact(c, ref));
  EXPECT_FALSE(info.degraded);
  EXPECT_TRUE(info.used_pb);
  EXPECT_EQ(exec.stats().degraded_plans, 0u);
}

// ---- strict input validation at the executor ingress ----------------------

TEST(ExecutorValidate, StrictModeRejectsMalformedOperands) {
  const mtx::CsrMatrix a = testutil::exact_er(60, 60, 4.0, 52);
  ExecutorOptions eo;
  eo.validate_inputs = true;
  SpGemmExecutor exec(eo);
  const SpGemmOp op = pb_op();
  EXPECT_NO_THROW(exec.run(SpGemmProblem::square(a), op));

  // Un-sort a row's column ids (safe to convert, invalid to multiply).
  mtx::CsrMatrix bad = a;
  bool corrupted = false;
  for (index_t r = 0; r < bad.nrows && !corrupted; ++r) {
    if (bad.row_nnz(r) >= 2) {
      std::swap(bad.colids[static_cast<std::size_t>(bad.rowptr[r])],
                bad.colids[static_cast<std::size_t>(bad.rowptr[r]) + 1]);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(exec.run(SpGemmProblem::square(bad), op), ValidationError);
  EXPECT_EQ(exec.pool_stats().in_flight, 0u);
}

// ---- csr_validate unit coverage -------------------------------------------

TEST(CsrValidate, AcceptsWellFormedMatrices) {
  EXPECT_TRUE(csr_validate(testutil::exact_er(50, 70, 3.0, 53)));
  EXPECT_TRUE(csr_validate(mtx::CsrMatrix{}));  // empty is well-formed
  EXPECT_TRUE(csr_validate(mtx::CsrMatrix::identity(8),
                           mtx::ValuePolicy::kFinite));
}

TEST(CsrValidate, ReportsEachStructuralViolation) {
  const mtx::CsrMatrix good = testutil::from_triplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}, {2, 0, 4.0}});
  ASSERT_TRUE(csr_validate(good));

  mtx::CsrMatrix m = good;
  m.rowptr.pop_back();
  EXPECT_FALSE(csr_validate(m));

  m = good;
  m.rowptr[0] = 1;
  EXPECT_FALSE(csr_validate(m));

  m = good;
  std::swap(m.rowptr[1], m.rowptr[2]);  // non-monotone
  EXPECT_FALSE(csr_validate(m));

  m = good;
  m.colids[0] = 3;  // out of [0, ncols)
  EXPECT_FALSE(csr_validate(m));

  m = good;
  m.colids[0] = -1;
  EXPECT_FALSE(csr_validate(m));

  m = good;
  std::swap(m.colids[0], m.colids[1]);  // unsorted within row 0
  EXPECT_FALSE(csr_validate(m));

  m = good;
  m.vals.pop_back();  // sizes disagree with rowptr.back()
  EXPECT_FALSE(csr_validate(m));

  // The diagnostic names the location.
  m = good;
  m.colids[2] = 5;
  const mtx::CsrValidation v = csr_validate(m);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.error.find("row 1"), std::string::npos) << v.error;
}

TEST(CsrValidate, ValuePolicyGovernsNonFiniteValues) {
  mtx::CsrMatrix m = testutil::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  m.vals[0] = std::numeric_limits<value_t>::infinity();
  EXPECT_TRUE(csr_validate(m));  // kAny: min-plus matrices carry inf
  EXPECT_FALSE(csr_validate(m, mtx::ValuePolicy::kFinite));
  EXPECT_THROW(
      csr_validate_or_throw(m, "ingress", mtx::ValuePolicy::kFinite),
      ValidationError);
}

// ---- malformed matrix-market rejection ------------------------------------

mtx::CooMatrix parse_mm(const std::string& text) {
  std::istringstream in(text);
  return mtx::read_matrix_market(in, "fuzz.mtx");
}

TEST(MatrixMarketReject, MalformedFilesFailWithDiagnosticsNotUndefined) {
  const char* bad[] = {
      "",                                                   // empty
      "%%NotMatrixMarket matrix coordinate real general\n"  // bad banner
      "1 1 1\n1 1 1.0\n",
      "%%MatrixMarket tensor coordinate real general\n"     // bad object
      "1 1 1\n1 1 1.0\n",
      "%%MatrixMarket matrix array real general\n"          // bad format
      "1 1\n1.0\n",
      "%%MatrixMarket matrix coordinate real general\n",    // no size line
      "%%MatrixMarket matrix coordinate real general\n"     // bad size line
      "two by two\n",
      "%%MatrixMarket matrix coordinate real general\n"     // negative dim
      "-2 2 1\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"     // > int32 dims
      "3000000000 3000000000 1\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"     // truncated
      "2 2 3\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"     // index OOB
      "2 2 1\n3 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"     // zero-based
      "2 2 1\n0 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"     // missing value
      "2 2 1\n1 1\n",
      "%%MatrixMarket matrix coordinate real general\n"     // nan value
      "2 2 1\n1 1 nan\n",
      "%%MatrixMarket matrix coordinate real general\n"     // inf value
      "2 2 1\n1 1 inf\n",
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_mm(text), std::runtime_error) << text;
  }
}

TEST(MatrixMarketReject, WellFormedVariantsStillParse) {
  const mtx::CooMatrix general = parse_mm(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "2 2 2\n1 1 1.5\n2 1 -2.0\n");
  EXPECT_EQ(general.nnz(), 2);
  const mtx::CooMatrix sym = parse_mm(
      "%%MatrixMarket matrix coordinate integer symmetric\n"
      "3 3 2\n2 1 4\n3 3 9\n");
  EXPECT_EQ(sym.nnz(), 3);  // mirrored off-diagonal
  const mtx::CooMatrix pattern = parse_mm(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n2 2\n");
  EXPECT_EQ(pattern.nnz(), 1);
}

// ---- env-armed fault injection (driven by ctest, see CMakeLists) ----------

// These run twice: once through gtest discovery with no PBS_FAULT_* set
// (skipped), and once through the dedicated RobustnessFaultEnv ctest
// entries that export the env var — exercising the read-once env
// activation path end to end in a clean process.

TEST(FaultEnvCtest, AllocFaultFromEnvironmentDegradesThenServes) {
  if (std::getenv("PBS_FAULT_ALLOC_AFTER") == nullptr) {
    GTEST_SKIP() << "PBS_FAULT_ALLOC_AFTER not set";
  }
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 5.0, 54);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  SpGemmExecutor exec;
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  EXPECT_TRUE(info.degraded);
  EXPECT_EQ(info.degrade_reason, "oom");
  EXPECT_EQ(exec.pool_stats().in_flight, 0u);
  // One-shot: the injector disarmed after firing, so the retry serves
  // the PB plan and must agree with the degraded result exactly.
  RunInfo retry;
  const mtx::CsrMatrix c2 = exec.run(p, op, &retry);
  EXPECT_FALSE(retry.degraded);
  EXPECT_TRUE(mtx::equal_exact(c, c2));
}

TEST(FaultEnvCtest, PhaseThrowFromEnvironmentPropagatesThenServes) {
  if (std::getenv("PBS_FAULT_THROW_AT") == nullptr) {
    GTEST_SKIP() << "PBS_FAULT_THROW_AT not set";
  }
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 5.0, 55);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op = pb_op();
  SpGemmExecutor exec;
  EXPECT_THROW(exec.run(p, op), FaultInjectedError);
  EXPECT_EQ(exec.pool_stats().in_flight, 0u);
  const mtx::CsrMatrix c = exec.run(p, op);
  SpGemmExecutor fresh;
  EXPECT_TRUE(mtx::equal_exact(c, fresh.run(p, op)));
}

}  // namespace
}  // namespace pbs
