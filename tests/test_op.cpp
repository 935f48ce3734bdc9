// The typed operation descriptor (SpGemmOp), the runtime SemiringRegistry,
// and the descriptor path through SpGemmExecutor: custom-semiring
// registration round-trips through the executor (algo = "auto"), masks
// fuse into every kernel family, and the accumulating run combines with
// the semiring add.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "matrix/ops.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/op.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

// The running custom-semiring example: (max, +) — longest-path relaxation,
// the tropical dual of min_plus.  Registered once per process (gtest runs
// all tests in one binary; double registration throws by design).
const char* kPlusMax = "plus_max";

const RuntimeSemiring& plus_max() {
  SemiringRegistry& reg = SemiringRegistry::instance();
  if (!reg.contains(kPlusMax)) {
    RuntimeSemiring rs;
    rs.name = kPlusMax;
    rs.zero = -std::numeric_limits<value_t>::infinity();
    rs.add = [](value_t a, value_t b) { return std::max(a, b); };
    rs.mul = [](value_t a, value_t b) { return a + b; };
    reg.register_semiring(rs);
  }
  return reg.at(kPlusMax);
}

// Serial oracle for plus_max (mirrors reference_spgemm_semiring's rules:
// first contribution stored as-is, exact zeros stay structural).  Written
// out locally because the library template is instantiated only for the
// built-ins + the runtime bridge.
mtx::CsrMatrix plus_max_oracle(const SpGemmProblem& p) {
  const mtx::CsrMatrix& a = p.a_csr;
  const mtx::CsrMatrix& b = p.b_csr;
  mtx::CsrMatrix out(a.nrows, b.ncols);
  std::map<index_t, value_t> acc;
  for (index_t r = 0; r < a.nrows; ++r) {
    acc.clear();
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      const index_t k = a.colids[i];
      for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
        const value_t product = a.vals[i] + b.vals[j];
        const auto [it, inserted] = acc.try_emplace(b.colids[j], product);
        if (!inserted) it->second = std::max(it->second, product);
      }
    }
    out.rowptr[static_cast<std::size_t>(r) + 1] =
        out.rowptr[r] + static_cast<nnz_t>(acc.size());
    for (const auto& [c, v] : acc) {
      out.colids.push_back(c);
      out.vals.push_back(v);
    }
  }
  return out;
}

// ---- SemiringRegistry -----------------------------------------------------

TEST(SemiringRegistryTest, BuiltinsPreRegisteredAndClosuresWork) {
  SemiringRegistry& reg = SemiringRegistry::instance();
  for (const std::string& s : semiring_names()) {
    const RuntimeSemiring* rs = reg.find(s);
    ASSERT_NE(rs, nullptr) << s;
    EXPECT_TRUE(rs->builtin);
  }
  const RuntimeSemiring& mp = reg.at(MinPlus::name);
  EXPECT_EQ(mp.zero, MinPlus::zero());
  EXPECT_EQ(mp.add(3.0, 5.0), 3.0);
  EXPECT_EQ(mp.mul(3.0, 5.0), 8.0);
}

TEST(SemiringRegistryTest, RejectsDuplicatesEmptyNamesAndMissingOps) {
  (void)plus_max();
  SemiringRegistry& reg = SemiringRegistry::instance();
  RuntimeSemiring dup;
  dup.name = kPlusMax;
  dup.add = [](value_t a, value_t b) { return a + b; };
  dup.mul = [](value_t a, value_t b) { return a * b; };
  EXPECT_THROW(reg.register_semiring(dup), std::invalid_argument);
  RuntimeSemiring anon = dup;
  anon.name = "";
  EXPECT_THROW(reg.register_semiring(anon), std::invalid_argument);
  RuntimeSemiring half;
  half.name = "half_defined";
  half.add = dup.add;
  EXPECT_THROW(reg.register_semiring(half), std::invalid_argument);
  // A user registration can never claim the built-in fast path.
  EXPECT_FALSE(reg.at(kPlusMax).builtin);
}

TEST(SemiringRegistryTest, UnknownSemiringErrorsListRegisteredNames) {
  (void)plus_max();
  try {
    semiring_algorithm("pb", "no_such_semiring");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(kPlusMax), std::string::npos)
        << "registered custom names should be listed: " << msg;
  }
}

// ---- custom semiring end-to-end -------------------------------------------

TEST(CustomSemiring, EveryGeneralizedAlgorithmMatchesOracle) {
  (void)plus_max();
  const mtx::CsrMatrix a = testutil::exact_er(120, 120, 4.0, 91);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected =
      plus_max_oracle(p);
  for (const char* algo : {"pb", "heap", "hash", "spa", "reference"}) {
    const mtx::CsrMatrix c = semiring_algorithm(algo, kPlusMax)(p);
    EXPECT_TRUE(mtx::equal_exact(c, expected)) << algo;
  }
}

TEST(CustomSemiring, NumericCloneMatchesNumericKernelsExactly) {
  // A runtime re-statement of (+, ×) must reproduce the compiled numeric
  // kernels bit for bit — the DynSemiring bridge adds indirection, not
  // arithmetic.
  SemiringRegistry& reg = SemiringRegistry::instance();
  if (!reg.contains("plus_times_rt")) {
    RuntimeSemiring rs;
    rs.name = "plus_times_rt";
    rs.zero = 0.0;
    rs.add = [](value_t x, value_t y) { return x + y; };
    rs.mul = [](value_t x, value_t y) { return x * y; };
    reg.register_semiring(rs);
  }
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, 92);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected = reference_spgemm(p);
  for (const char* algo : {"pb", "heap", "hash", "spa"}) {
    EXPECT_TRUE(mtx::equal_exact(semiring_algorithm(algo, "plus_times_rt")(p),
                                 expected))
        << algo;
  }
}

TEST(CustomSemiring, RoundTripsThroughExecutorWithAutoSelection) {
  // The acceptance path: a runtime-registered semiring executes end-to-end
  // through SpGemmExecutor::prepare + run with algo = "auto".
  (void)plus_max();
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 93);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.semiring = kPlusMax;  // algo stays "auto"
  SpGemmExecutor exec;
  RunInfo info;
  exec.prepare(p, op, &info);
  EXPECT_FALSE(info.choice.rationale.empty());
  EXPECT_EQ(info.algo, info.choice.algo);
  const mtx::CsrMatrix c = exec.run(p, op);
  const mtx::CsrMatrix again = exec.run(p, op);
  EXPECT_TRUE(mtx::equal_exact(c, again));
  EXPECT_EQ(exec.stats().cache_misses, 1u);  // the prepare; runs hit
  EXPECT_TRUE(
      mtx::equal_exact(c, plus_max_oracle(p)));
}

TEST(CustomSemiring, WorksThroughPbSpgemmNamedWithTelemetry) {
  (void)plus_max();
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 94);
  const SpGemmProblem p = SpGemmProblem::square(a);
  pb::PbWorkspace ws;
  const pb::PbResult r =
      pb::pb_spgemm_named(kPlusMax, p.a_csc, p.b_csr, pb::PbConfig{}, ws);
  EXPECT_TRUE(mtx::equal_exact(
      r.c, plus_max_oracle(p)));
  EXPECT_GT(r.stats.flop, 0);
}

TEST(CustomSemiring, ThrowingMulPropagatesFromEveryKernelAndTheNextRunIsClean) {
  // A scalar op that throws inside a kernel's parallel loop must come back
  // to the caller as that exception (not end the process), and leave the
  // executor serving: the next plus_times run equals a fresh executor's.
  const char* kThrowing = "throwing_mul";
  SemiringRegistry& reg = SemiringRegistry::instance();
  if (!reg.contains(kThrowing)) {
    RuntimeSemiring rs;
    rs.name = kThrowing;
    rs.add = [](value_t a, value_t b) { return a + b; };
    rs.mul = [](value_t, value_t) -> value_t {
      throw std::domain_error("mul refused");
    };
    reg.register_semiring(rs);
  }
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 96);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    for (const char* algo : {"pb", "heap", "hash", "spa"}) {
      SpGemmExecutor exec;
      SpGemmOp bad;
      bad.semiring = kThrowing;
      bad.algo = algo;
      EXPECT_THROW((void)exec.run(p, bad), std::domain_error)
          << algo << " at " << threads << " threads";

      SpGemmOp good;
      good.algo = algo;
      const mtx::CsrMatrix after = exec.run(p, good);
      SpGemmExecutor fresh;
      EXPECT_TRUE(mtx::equal_exact(after, fresh.run(p, good)))
          << algo << " at " << threads << " threads";
    }
  }
}

// ---- masked descriptor path -----------------------------------------------

TEST(SpGemmOpMask, DescriptorMatchesOracleAcrossAlgorithms) {
  const mtx::CsrMatrix a = testutil::exact_er(130, 130, 5.0, 95);
  const mtx::CsrMatrix mask = testutil::exact_er(130, 130, 7.0, 96);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix full = reference_spgemm(p);
  for (const bool complement : {false, true}) {
    const mtx::CsrMatrix expected =
        mtx::pattern_filter(full, mask, complement);
    for (const char* algo : {"pb", "heap", "hash", "spa"}) {
      SpGemmOp op;
      op.algo = algo;
      op.mask = &mask;
      op.complement = complement;
      SpGemmExecutor exec;
      EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), expected))
          << algo << " complement=" << complement;
    }
  }
}

TEST(SpGemmOpMask, AutoSelectionIsMaskAwareAndCorrect) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 97);
  const mtx::CsrMatrix mask = testutil::exact_er(400, 400, 3.0, 98);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.mask = &mask;  // algo stays "auto"
  SpGemmExecutor exec;
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  // The mask-density term must be visible in the recorded decision.
  EXPECT_GE(info.choice.cf_out, info.choice.cf);
  EXPECT_TRUE(mtx::equal_exact(
      c, mtx::pattern_filter(reference_spgemm(p), mask, false)));
}

TEST(SpGemmOpMask, PbRecordsDroppedTuplesInTelemetry) {
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 6.0, 99);
  const mtx::CsrMatrix mask = testutil::exact_er(250, 250, 4.0, 100);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  op.mask = &mask;
  // Pin the compress-stage drop path: this mask is sparse enough that the
  // auto expand-mask would otherwise engage and leave nothing to drop.
  op.pb.expand_mask = pb::ExpandMaskMode::kOff;
  SpGemmExecutor exec;
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  const pb::PbTelemetry& tm = info.pb_stats;
  EXPECT_EQ(tm.nnz_c, c.nnz());
  EXPECT_FALSE(tm.expand_masked);
  EXPECT_EQ(tm.mask_skipped_expand, 0);
  EXPECT_GT(tm.mask_dropped, 0);
  // Survivors + dropped = the unmasked product's nonzeros.
  EXPECT_EQ(tm.nnz_c + tm.mask_dropped, reference_spgemm(p).nnz());
}

TEST(SpGemmOpMask, PbRecordsExpandSkippedTuplesInTelemetry) {
  // The same sparse mask under the fused expand path: tuples for
  // masked-out outputs are never generated, so the drop count moves from
  // mask_dropped to mask_skipped_expand and flop = generated + skipped.
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 6.0, 99);
  const mtx::CsrMatrix mask = testutil::exact_er(250, 250, 4.0, 100);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  op.mask = &mask;
  op.pb.expand_mask = pb::ExpandMaskMode::kOn;
  SpGemmExecutor exec;
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  const pb::PbTelemetry& tm = info.pb_stats;
  EXPECT_EQ(tm.nnz_c, c.nnz());
  EXPECT_TRUE(tm.expand_masked);
  EXPECT_GT(tm.mask_skipped_expand, 0);
  EXPECT_EQ(tm.mask_dropped, 0);
  EXPECT_TRUE(mtx::equal_exact(
      c, mtx::pattern_filter(reference_spgemm(p), mask, false)));
}

TEST(SpGemmOpMask, AutoCreditsExactlyTheExpandSkipThatRuns) {
  // The selection model credits PB's estimate 1/kept_density only when
  // the fused expand mask will engage (pb::engage_expand_mask): under
  // kAuto for a sparse mask and under kOn, never under kOff.
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 97);
  const mtx::CsrMatrix mask = testutil::exact_er(400, 400, 3.0, 98);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const double kept = static_cast<double>(mask.nnz()) / (400.0 * 400.0);
  ASSERT_LE(kept, 0.05);  // sparse enough for kAuto to engage

  const auto pb_estimate = [&](pb::ExpandMaskMode mode) {
    SpGemmOp op;
    op.mask = &mask;  // algo stays "auto"
    op.pb.expand_mask = mode;
    SpGemmExecutor exec;
    RunInfo info;
    (void)exec.run(p, op, &info);
    return info.choice.pb_mflops;
  };
  const double off = pb_estimate(pb::ExpandMaskMode::kOff);
  const double autom = pb_estimate(pb::ExpandMaskMode::kAuto);
  const double on = pb_estimate(pb::ExpandMaskMode::kOn);
  ASSERT_GT(off, 0.0);
  EXPECT_DOUBLE_EQ(autom, off / kept);
  EXPECT_DOUBLE_EQ(on, off / kept);
}

TEST(SpGemmOpMask, MaskedAcrossSemiringsAndFormats) {
  // pb masked × every built-in semiring × wide/narrow streams against the
  // semiring oracle filtered by the mask.
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, 101);
  const mtx::CsrMatrix mask = testutil::exact_er(150, 150, 6.0, 102);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const std::string& s : semiring_names()) {
    const mtx::CsrMatrix expected = dispatch_semiring(s, [&]<typename S>() {
      return mtx::pattern_filter(reference_spgemm_semiring<S>(p), mask,
                                 false);
    });
    for (const pb::FormatPolicy format :
         {pb::FormatPolicy::kWide, pb::FormatPolicy::kNarrow}) {
      SpGemmOp op;
      op.algo = "pb";
      op.semiring = s;
      op.mask = &mask;
      op.pb.format = format;
      SpGemmExecutor exec;
      EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), expected))
          << s << " format=" << static_cast<int>(format);
    }
  }
}

TEST(SpGemmOpMask, UnfusedBaselinesFallBackToFilteredProduct) {
  const mtx::CsrMatrix a = testutil::exact_er(90, 90, 4.0, 103);
  const mtx::CsrMatrix mask = testutil::exact_er(90, 90, 5.0, 104);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected =
      mtx::pattern_filter(reference_spgemm(p), mask, false);
  for (const char* algo : {"esc", "hashvec", "reference"}) {
    SpGemmOp op;
    op.algo = algo;
    op.mask = &mask;
    SpGemmExecutor exec;
    EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), expected)) << algo;
  }
}

TEST(SpGemmOpMask, CustomSemiringOnUnfusedGeneralizedAlgorithm) {
  // A masked plan over a runtime semiring runs the DynSemiring
  // instantiation of every generalized kernel's masked body — the fused
  // ones (pb, heap, hash, spa) and, regression, the unfused reference,
  // which must resolve the real kernel rather than re-look-up the
  // DynSemiring sentinel name.
  (void)plus_max();
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 4.0, 122);
  const mtx::CsrMatrix mask = testutil::exact_er(80, 80, 5.0, 123);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const char* algo : {"pb", "heap", "hash", "spa", "reference"}) {
    for (const bool complement : {false, true}) {
      SpGemmOp op;
      op.algo = algo;
      op.semiring = kPlusMax;
      op.mask = &mask;
      op.complement = complement;
      SpGemmExecutor exec;
      EXPECT_TRUE(mtx::equal_exact(
          exec.run(p, op),
          mtx::pattern_filter(plus_max_oracle(p), mask, complement)))
          << algo << " c=" << complement;
    }
  }
}

TEST(SpGemmOpMask, MaskShapeMismatchThrowsAtPlanTime) {
  // Every registry algorithm (and auto) rejects a mis-shaped mask: at plan
  // time through the descriptor, and per call through the bare resolver.
  const mtx::CsrMatrix a = testutil::exact_er(50, 50, 3.0, 105);
  const mtx::CsrMatrix bad = testutil::exact_er(50, 51, 3.0, 106);
  const SpGemmProblem p = SpGemmProblem::square(a);
  std::vector<std::string> algos = {"auto"};
  for (const AlgoInfo& info : algorithms()) algos.push_back(info.name);
  for (const std::string& algo : algos) {
    for (const bool complement : {false, true}) {
      SpGemmOp op;
      op.algo = algo;
      op.mask = &bad;
      op.complement = complement;
      SpGemmExecutor exec;
      EXPECT_THROW(exec.prepare(p, op), std::invalid_argument)
          << algo << " c=" << complement;
      if (algo == "auto") continue;
      const SpGemmFn fn =
          masked_semiring_algorithm(algo, "plus_times", &bad, complement);
      EXPECT_THROW((void)fn(p), std::invalid_argument)
          << algo << " c=" << complement;
    }
  }
}

TEST(SpGemmOpMask, MaskPatternMayChangeBetweenExecutes) {
  // Only the mask's shape is pinned at plan time; its pattern is read per
  // run, so iterative applications can mutate the mask in place.
  const mtx::CsrMatrix a = testutil::exact_er(140, 140, 5.0, 107);
  const SpGemmProblem p = SpGemmProblem::square(a);
  mtx::CsrMatrix mask = testutil::exact_er(140, 140, 6.0, 108);
  SpGemmOp op;
  op.algo = "pb";
  op.mask = &mask;
  SpGemmExecutor exec;
  exec.prepare(p, op);
  const mtx::CsrMatrix full = reference_spgemm(p);
  EXPECT_TRUE(
      mtx::equal_exact(exec.run(p, op), mtx::pattern_filter(full, mask)));
  mask = testutil::exact_er(140, 140, 2.0, 109);  // new pattern, same shape
  RunInfo info;
  EXPECT_TRUE(mtx::equal_exact(exec.run(p, op, &info),
                               mtx::pattern_filter(full, mask)));
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(exec.stats().cache_misses, 1u);
}

// ---- accumulate -----------------------------------------------------------

TEST(SpGemmOpAccumulate, PlusTimesAccumulateIsMatrixAdd) {
  const mtx::CsrMatrix a = testutil::exact_er(100, 100, 4.0, 110);
  const mtx::CsrMatrix c0 = testutil::exact_er(100, 100, 5.0, 111);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  SpGemmExecutor exec;
  const mtx::CsrMatrix c = exec.run(p, op, c0);
  EXPECT_TRUE(mtx::equal_exact(c, mtx::add(c0, reference_spgemm(p))));
}

TEST(SpGemmOpAccumulate, MinPlusAccumulateTakesElementwiseMin) {
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 4.0, 112);
  const mtx::CsrMatrix c0 = testutil::exact_er(80, 80, 5.0, 113);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "heap";
  op.semiring = MinPlus::name;
  SpGemmExecutor exec;
  const mtx::CsrMatrix product = reference_spgemm_semiring<MinPlus>(p);
  const mtx::CsrMatrix c = exec.run(p, op, c0);
  EXPECT_TRUE(
      mtx::equal_exact(c, semiring_ewise_add(MinPlus::name, c0, product)));
  // Spot-check the union-merge semantics directly.
  const mtx::CsrMatrix expected = semiring_ewise_add(MinPlus::name, c0, product);
  EXPECT_EQ(expected.nnz(),
            mtx::add(mtx::to_pattern(c0), mtx::to_pattern(product)).nnz());
}

TEST(SemiringEwiseAdd, MatchesMatrixAddForPlusTimes) {
  const mtx::CsrMatrix x = testutil::exact_er(60, 70, 3.0, 114);
  const mtx::CsrMatrix y = testutil::exact_er(60, 70, 4.0, 115);
  EXPECT_TRUE(mtx::equal_exact(semiring_ewise_add(PlusTimes::name, x, y),
                               mtx::add(x, y)));
  const mtx::CsrMatrix bad = testutil::exact_er(60, 71, 3.0, 116);
  EXPECT_THROW((void)semiring_ewise_add(PlusTimes::name, x, bad),
               std::invalid_argument);
}

// ---- pattern_filter (the oracle primitive) --------------------------------

TEST(PatternFilter, KeepsAndComplementsPartitionTheMatrix) {
  const mtx::CsrMatrix a = testutil::exact_er(70, 70, 4.0, 117);
  const mtx::CsrMatrix mask = testutil::exact_er(70, 70, 5.0, 118);
  const mtx::CsrMatrix in = mtx::pattern_filter(a, mask, false);
  const mtx::CsrMatrix out = mtx::pattern_filter(a, mask, true);
  EXPECT_EQ(in.nnz() + out.nnz(), a.nnz());
  EXPECT_TRUE(mtx::equal_exact(mtx::add(in, out), a));
  EXPECT_TRUE(mtx::equal_exact(mtx::pattern_filter(a, a), a));
}

}  // namespace
}  // namespace pbs
