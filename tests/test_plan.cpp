// Plan/execute architecture: the PB plan-build/execute split, the
// executor's cached plans with roofline-guided "auto" selection,
// structural invalidation, and workspace pooling across executions.
#include <gtest/gtest.h>

#include <stdexcept>

#include "matrix/mstats.hpp"
#include "model/selection.hpp"
#include "pb/plan.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

// ---- PB layer: pb_plan_build / pb_execute --------------------------------

TEST(PbPlan, ExecuteMatchesFreshPipelineAcrossSemirings) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 11);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const pb::PbConfig cfg;
  const pb::PbPlan plan = pb::pb_plan_build(p.a_csc, p.b_csr, cfg);

  for (const std::string& s : semiring_names()) {
    pb::PbWorkspace fresh_ws, plan_ws;
    const pb::PbResult fresh =
        pb::pb_spgemm_named(s, p.a_csc, p.b_csr, cfg, fresh_ws);
    const pb::PbResult planned =
        pb::pb_execute_named(s, p.a_csc, p.b_csr, plan, plan_ws);
    EXPECT_TRUE(mtx::equal_exact(fresh.c, planned.c)) << s;
    // Analysis was paid at build time, not at execute time.
    EXPECT_EQ(planned.stats.symbolic.seconds, 0.0) << s;
    EXPECT_EQ(planned.stats.flop, fresh.stats.flop) << s;
  }
  EXPECT_GT(plan.symbolic.seconds, 0.0);
}

TEST(PbPlan, ReexecutionSkipsAllocation) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 8.0, 12);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const pb::PbPlan plan = pb::pb_plan_build(p.a_csc, p.b_csr, {});

  pb::PbWorkspace ws;
  const pb::PbResult first = pb::pb_execute<PlusTimes>(p.a_csc, p.b_csr, plan, ws);
  const pb::PbWorkspace::Stats after_first = ws.stats();
  EXPECT_EQ(after_first.allocations, 1u);
  EXPECT_GE(after_first.scratch_allocations, 1u);

  for (int i = 0; i < 4; ++i) {
    const pb::PbResult again =
        pb::pb_execute<PlusTimes>(p.a_csc, p.b_csr, plan, ws);
    EXPECT_TRUE(mtx::equal_exact(first.c, again.c));
  }
  const pb::PbWorkspace::Stats steady = ws.stats();
  // Steady state: every pool request is served from retained capacity.
  EXPECT_EQ(steady.allocations, after_first.allocations);
  EXPECT_EQ(steady.scratch_allocations, after_first.scratch_allocations);
  EXPECT_EQ(steady.reuses, after_first.reuses + 4);
  EXPECT_GT(steady.scratch_reuses, after_first.scratch_reuses);
}

TEST(PbPlan, MismatchedInnerDimensionsThrowBeforeAnyFlopPass) {
  // a.ncols != b.nrows must throw from every fingerprint/flop entry point
  // (regression: the flop pass walks b's rows by a's column index and
  // previously read past b.rowptr before pb_symbolic's check ran).
  const mtx::CsrMatrix a = testutil::exact_er(30, 50, 3.0, 27);
  const mtx::CsrMatrix b = testutil::exact_er(20, 30, 3.0, 28);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);  // 50 vs 20 inner
  EXPECT_THROW((void)mtx::count_flops(p.a_csc, p.b_csr),
               std::invalid_argument);
  EXPECT_THROW((void)pb::pb_estimate_nnz_c(p.a_csc, p.b_csr),
               std::invalid_argument);
  EXPECT_THROW((void)pb::StructureFingerprint::of(p.a_csc, p.b_csr),
               std::invalid_argument);
  SpGemmExecutor exec;
  EXPECT_THROW(exec.prepare(p), std::invalid_argument);
}

TEST(PbPlan, RejectsStructurallyDifferentOperands) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 13);
  const mtx::CsrMatrix other = testutil::exact_er(150, 150, 5.0, 14);
  const SpGemmProblem pa = SpGemmProblem::square(a);
  const SpGemmProblem po = SpGemmProblem::square(other);
  const pb::PbPlan plan = pb::pb_plan_build(pa.a_csc, pa.b_csr, {});

  pb::PbWorkspace ws;
  EXPECT_THROW(
      (void)pb::pb_execute<PlusTimes>(po.a_csc, po.b_csr, plan, ws),
      std::invalid_argument);
  EXPECT_TRUE(plan.matches(pa.a_csc, pa.b_csr));
  EXPECT_FALSE(plan.matches(po.a_csc, po.b_csr));
}

TEST(PbPlan, FingerprintDistinguishesSameAggregateStructures) {
  // Two permutation matrices agree on every aggregate the fingerprint
  // held before the structural hash: same dims, nnz = n, and flop(P²) = n
  // for ANY permutation.  Only the sampled structure hash tells them
  // apart — without it the plan cache would serve the identity's plan for
  // the reversal's multiplication.
  constexpr index_t n = 512;
  const auto permutation = [](index_t size, bool reversed) {
    mtx::CsrMatrix m(size, size);
    for (index_t r = 0; r < size; ++r) {
      m.rowptr[static_cast<std::size_t>(r) + 1] = r + 1;
      m.colids.push_back(reversed ? size - 1 - r : r);
      m.vals.push_back(1.0);
    }
    return m;
  };
  const mtx::CsrMatrix ident = permutation(n, false);
  const mtx::CsrMatrix rev = permutation(n, true);
  const SpGemmProblem pi = SpGemmProblem::square(ident);
  const SpGemmProblem pr = SpGemmProblem::square(rev);
  const pb::StructureFingerprint fi =
      pb::StructureFingerprint::of(pi.a_csc, pi.b_csr);
  const pb::StructureFingerprint fr =
      pb::StructureFingerprint::of(pr.a_csc, pr.b_csr);
  EXPECT_EQ(fi.a_nnz, fr.a_nnz);
  EXPECT_EQ(fi.flop, fr.flop);
  EXPECT_NE(fi.structure_hash, fr.structure_hash);
  EXPECT_FALSE(fi == fr);

  // Value updates keep the hash (it samples pointers and indices, never
  // values): fingerprint-verified re-execution still matches.
  mtx::CsrMatrix scaled = ident;
  for (value_t& v : scaled.vals) v *= 3.0;
  const SpGemmProblem ps = SpGemmProblem::square(scaled);
  EXPECT_TRUE(fi == pb::StructureFingerprint::of(ps.a_csc, ps.b_csr));
}

TEST(PbPlan, HintsReproduceTheUnhintedPlan) {
  // Threading the fingerprint's flop into symbolic must be a pure
  // optimization: identical layout, regions and format.
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 5.0, 31);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const nnz_t flop = mtx::count_flops(p.a_csc, p.b_csr);

  pb::PbConfig cfg;
  pb::SymbolicHints hints;
  hints.flop = flop;
  const pb::PbPlan plain = pb::pb_plan_build(p.a_csc, p.b_csr, cfg);
  const pb::PbPlan hinted = pb::pb_plan_build(p.a_csc, p.b_csr, cfg, hints);
  EXPECT_EQ(plain.sym.flop, hinted.sym.flop);
  EXPECT_EQ(plain.sym.format, hinted.sym.format);
  EXPECT_EQ(plain.sym.col_bits, hinted.sym.col_bits);
  EXPECT_EQ(plain.sym.bin_offsets, hinted.sym.bin_offsets);
  EXPECT_EQ(plain.sym.bin_fill, hinted.sym.bin_fill);
  EXPECT_EQ(plain.fingerprint, hinted.fingerprint);
}

// ---- compression-factor estimator ----------------------------------------

TEST(Estimator, TracksActualCompressionOnRandomMatrices) {
  const mtx::CsrMatrix a = testutil::exact_er(500, 500, 8.0, 15);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const nnz_t est = pb::pb_estimate_nnz_c(p.a_csc, p.b_csr);
  const nnz_t actual = reference_spgemm(p).nnz();
  ASSERT_GT(actual, 0);
  // The balls-into-bins model is exact in the sparse and dense limits and
  // within tens of percent between them for unstructured matrices.
  EXPECT_GT(est, actual / 2);
  EXPECT_LT(est, actual * 2);
}

// ---- selection heuristic --------------------------------------------------

TEST(Selection, LowCompressionPicksPb) {
  const model::AlgoChoice c = model::select_algorithm(1.0, 1 << 20, true);
  EXPECT_EQ(c.algo, "pb");
  EXPECT_FALSE(c.rationale.empty());
  EXPECT_GT(c.pb_mflops, c.column_mflops);
}

TEST(Selection, HighCompressionPicksHash) {
  const model::AlgoChoice c = model::select_algorithm(32.0, 1 << 20, true);
  EXPECT_EQ(c.algo, "hash");
  EXPECT_GT(c.column_mflops, c.pb_mflops);
}

TEST(Selection, HighCompressionWithoutHashFallsToHeap) {
  // Non-numeric semirings rule hash out; the column family is heap.
  const model::AlgoChoice c = model::select_algorithm(32.0, 1 << 20, false);
  EXPECT_EQ(c.algo, "heap");
}

TEST(Selection, TinyProblemsPickHeap) {
  const model::AlgoChoice c = model::select_algorithm(1.0, 100, true);
  EXPECT_EQ(c.algo, "heap");
}

TEST(Selection, CrossoverIsMonotoneInCf) {
  // Scanning cf upward flips the decision exactly once (pb -> column).
  bool seen_column = false;
  for (double cf = 1.0; cf <= 64.0; cf *= 1.5) {
    const model::AlgoChoice c = model::select_algorithm(cf, 1 << 20, true);
    if (c.algo != "pb") seen_column = true;
    if (seen_column) EXPECT_NE(c.algo, "pb") << "cf " << cf;
  }
  EXPECT_TRUE(seen_column);
}

TEST(Selection, KeyOnlyStreamShiftsCrossoverTowardPb) {
  // The byte model charges Eq. 4's Cˆ term the bytes the plan's tuple
  // stream actually moves (executor wiring: m.pb_tuple_bytes =
  // bytes_per_tuple(predict_tuple_format(...))).  A boolean workload
  // predicts the 8 B key-only stream, a numeric one the 12 B narrow
  // stream — same geometry, same flop.  With defaults the pb/hash
  // crossover sits at cf ≈ 3.0 for 12 B and cf ≈ 7.7 for 8 B, so at
  // cf = 4 the valued plan rules pb out while the boolean plan keeps it.
  const index_t n = 1 << 16;  // narrow fits: local_row_bits + col_bits ≤ 32
  const nnz_t flop = 1 << 20;

  pb::PbConfig boolean_cfg;
  boolean_cfg.value_free = true;  // what pb_spgemm<BoolOrAnd> injects
  const pb::PbConfig valued_cfg;
  const pb::TupleFormat boolean_fmt =
      pb::predict_tuple_format(n, n, flop, boolean_cfg);
  const pb::TupleFormat valued_fmt =
      pb::predict_tuple_format(n, n, flop, valued_cfg);
  ASSERT_EQ(boolean_fmt, pb::TupleFormat::kKeyOnly);
  ASSERT_EQ(valued_fmt, pb::TupleFormat::kNarrow);

  model::SelectionModel m;
  m.pb_tuple_bytes = static_cast<double>(pb::bytes_per_tuple(valued_fmt));
  const model::AlgoChoice valued = model::select_algorithm(4.0, flop, true, m);
  EXPECT_EQ(valued.algo, "hash");

  m.pb_tuple_bytes = static_cast<double>(pb::bytes_per_tuple(boolean_fmt));
  const model::AlgoChoice boolean = model::select_algorithm(4.0, flop, true, m);
  EXPECT_EQ(boolean.algo, "pb");
  EXPECT_GT(boolean.ai_outer, valued.ai_outer);
}

// ---- executor plans ---------------------------------------------------------

TEST(ExecutorPlan, MatchesRegistryKernelsAcrossSemirings) {
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 6.0, 16);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  for (const std::string& algo : {"pb", "heap"}) {
    for (const std::string& s : semiring_names()) {
      SpGemmOp op;
      op.algo = algo;
      op.semiring = s;
      RunInfo info;
      const mtx::CsrMatrix c = exec.run(p, op, &info);
      EXPECT_EQ(info.algo, algo);
      const mtx::CsrMatrix expected = semiring_algorithm(algo, s)(p);
      EXPECT_TRUE(mtx::equal_exact(c, expected)) << algo << " x " << s;
    }
  }
}

TEST(ExecutorPlan, AutoResolvesToConcreteAlgorithmWithRationale) {
  const mtx::CsrMatrix a = testutil::exact_er(600, 600, 8.0, 17);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  RunInfo info;
  exec.prepare(p, {}, &info);  // defaults: auto, plus_times
  EXPECT_TRUE(info.algo == "pb" || info.algo == "hash" || info.algo == "heap")
      << info.algo;
  EXPECT_EQ(info.algo, info.choice.algo);
  EXPECT_FALSE(info.choice.rationale.empty());
  EXPECT_GT(info.choice.cf, 0.0);

  const mtx::CsrMatrix c = exec.run(p);
  EXPECT_TRUE(mtx::equal_exact(c, reference_spgemm(p)));
}

TEST(ExecutorPlan, AutoFollowsCompressionFactor) {
  // An ER squaring barely compresses -> the outer-product pipeline; a
  // near-dense squaring compresses heavily -> the Gustavson hash.
  const mtx::CsrMatrix sparse = testutil::exact_er(2000, 2000, 8.0, 18);
  const mtx::CsrMatrix dense = testutil::exact_er(150, 150, 40.0, 19);
  SpGemmExecutor exec;
  RunInfo sp;
  RunInfo dp;
  exec.prepare(SpGemmProblem::square(sparse), {}, &sp);
  exec.prepare(SpGemmProblem::square(dense), {}, &dp);
  EXPECT_EQ(sp.algo, "pb");
  EXPECT_EQ(dp.algo, "hash");
}

TEST(ExecutorPlan, RecordsPredictedAndAchievedMflops) {
  const mtx::CsrMatrix a = testutil::exact_er(500, 500, 8.0, 30);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  RunInfo info;
  exec.prepare(p, {}, &info);  // auto
  // The prediction is fixed at plan time from the roofline choice...
  EXPECT_GT(info.predicted_mflops, 0.0);
  EXPECT_EQ(info.achieved_mflops, 0.0);
  // ...and every execute records what it actually achieved against it.
  for (int i = 0; i < 2; ++i) {
    (void)exec.run(p, {}, &info);
    EXPECT_GT(info.predicted_mflops, 0.0);
    EXPECT_GT(info.achieved_mflops, 0.0);
  }
}

TEST(ExecutorPlan, RepeatedExecutionSkipsAnalysisAndAllocation) {
  const mtx::CsrMatrix a = testutil::exact_er(350, 350, 7.0, 20);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  SpGemmExecutor exec;
  exec.prepare(p, op);

  RunInfo info;
  const mtx::CsrMatrix first = exec.run(p, op, &info);
  const pb::PbWorkspace::Stats after_first = exec.workspace_stats();
  for (int i = 0; i < 5; ++i) {
    const mtx::CsrMatrix again = exec.run(p, op, &info);
    EXPECT_TRUE(mtx::equal_exact(first, again));
    EXPECT_TRUE(info.cache_hit);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.executes, 6u);
  EXPECT_EQ(s.cache_misses, 1u);  // the prepare
  EXPECT_EQ(s.cache_hits, 6u);
  // The symbolic phase of a reused execution is skipped entirely...
  EXPECT_EQ(info.pb_stats.symbolic.seconds, 0.0);
  // ...and the tuple buffer is never reallocated.
  const pb::PbWorkspace::Stats steady = exec.workspace_stats();
  EXPECT_EQ(steady.allocations, after_first.allocations);
  EXPECT_EQ(steady.reuses, after_first.reuses + 5);
}

TEST(ExecutorPlan, InvalidatesOnShapeChangeAndRecovers) {
  const mtx::CsrMatrix big = testutil::exact_er(400, 400, 6.0, 21);
  const mtx::CsrMatrix small = testutil::exact_er(120, 120, 4.0, 22);
  const SpGemmProblem pb_ = SpGemmProblem::square(big);
  const SpGemmProblem ps = SpGemmProblem::square(small);

  SpGemmOp op;
  op.algo = "pb";
  SpGemmExecutor exec;
  exec.prepare(pb_, op);
  EXPECT_TRUE(mtx::equal_exact(exec.run(pb_, op), reference_spgemm(pb_)));

  // Different structure: the fingerprint misses, the executor analyzes
  // the new structure and stays correct.
  RunInfo info;
  EXPECT_TRUE(mtx::equal_exact(exec.run(ps, op, &info), reference_spgemm(ps)));
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(exec.stats().cache_misses, 2u);

  // Back on the second structure: analysis is reused again.
  (void)exec.run(ps, op, &info);
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(exec.stats().cache_misses, 2u);
}

TEST(ExecutorPlan, GrowShrinkGrowReusesPeakCapacity) {
  // A grow-then-shrink-then-grow problem sequence through one executor:
  // the pooled buffer sized by the big problem serves the small one and
  // the big one again without any new allocation.
  const mtx::CsrMatrix big = testutil::exact_er(500, 500, 8.0, 23);
  const mtx::CsrMatrix small = testutil::exact_er(100, 100, 3.0, 24);
  const SpGemmProblem pb_ = SpGemmProblem::square(big);
  const SpGemmProblem ps = SpGemmProblem::square(small);

  SpGemmOp op;
  op.algo = "pb";
  SpGemmExecutor exec;
  (void)exec.run(pb_, op);
  const pb::PbWorkspace::Stats after_big = exec.workspace_stats();

  EXPECT_TRUE(mtx::equal_exact(exec.run(ps, op), reference_spgemm(ps)));
  EXPECT_TRUE(mtx::equal_exact(exec.run(pb_, op), reference_spgemm(pb_)));
  const pb::PbWorkspace::Stats end = exec.workspace_stats();
  EXPECT_EQ(end.allocations, after_big.allocations);
  EXPECT_EQ(end.reuses, after_big.reuses + 2);
  EXPECT_EQ(end.peak_request, after_big.peak_request);
}

TEST(ExecutorPlan, RejectsUnsupportedPairsAtPlanTime) {
  const mtx::CsrMatrix a = testutil::exact_er(50, 50, 3.0, 25);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "hashvec";  // the hash family's remaining plus_times-only member
  op.semiring = "min_plus";
  EXPECT_THROW(exec.prepare(p, op), std::invalid_argument);
  op.algo = "no_such_algo";
  EXPECT_THROW(exec.prepare(p, op), std::invalid_argument);
}

}  // namespace
}  // namespace pbs
