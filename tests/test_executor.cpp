// Executor layer: fingerprint-keyed plan cache (LRU hits/evictions),
// prepare-then-run, value-only re-execution, workspace-pooled concurrent
// serving, the calibration telemetry loop, and the structural-only masked
// nnz estimate.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "matrix/mstats.hpp"
#include "matrix/ops.hpp"
#include "model/selection.hpp"
#include "pb/symbolic.hpp"
#include "pb/workspace_pool.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

/// Same structure, different numeric values (exact under small-int
/// scaling): the value-only contract's legitimate mutation.
mtx::CsrMatrix scale_values(const mtx::CsrMatrix& a, value_t factor) {
  mtx::CsrMatrix out = a;
  for (value_t& v : out.vals) v *= factor;
  return out;
}

// ---- WorkspacePool --------------------------------------------------------

TEST(WorkspacePool, LeasesAreExclusiveAndReturnedWorkspacesAreReused) {
  pb::WorkspacePool pool;
  {
    const pb::WorkspacePool::Lease l1 = pool.acquire();
    const pb::WorkspacePool::Lease l2 = pool.acquire();
    EXPECT_NE(&l1.workspace(), &l2.workspace());  // concurrent = distinct
    (void)l1.workspace().acquire(64);             // warm one member
  }
  const pb::WorkspacePool::Lease l3 = pool.acquire();  // idle again: reuse
  const pb::WorkspacePool::Stats s = pool.stats();
  EXPECT_EQ(s.leases, 3u);
  EXPECT_EQ(s.created, 2u);
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.workspaces, 2u);
  EXPECT_EQ(s.peak_in_flight, 2u);
  // The aggregate allocator view covers every member.
  EXPECT_EQ(pool.workspace_stats().allocations, 1u);
}

// ---- SpGemmExecutor: correctness ------------------------------------------

TEST(Executor, MatchesReferenceAcrossAlgorithmsAndSemirings) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 41);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  for (const std::string& algo : {"auto", "pb", "heap", "hash"}) {
    for (const std::string& s : semiring_names()) {
      SpGemmOp op;
      op.algo = algo;
      op.semiring = s;
      const mtx::CsrMatrix c = exec.run(p, op);
      EXPECT_TRUE(mtx::equal_exact(c, semiring_algorithm("reference", s)(p)))
          << algo << " x " << s;
    }
  }
}

TEST(Executor, MaskedRunsMatchThePatternFilterOracle) {
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, 42);
  const mtx::CsrMatrix mask = testutil::exact_er(150, 150, 2.0, 43);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix product = reference_spgemm(p);
  SpGemmExecutor exec;
  for (const bool complement : {false, true}) {
    SpGemmOp op;
    op.algo = "pb";
    op.mask = &mask;
    op.complement = complement;
    RunInfo info;
    const mtx::CsrMatrix c = exec.run(p, op, &info);
    EXPECT_TRUE(mtx::equal_exact(
        c, mtx::pattern_filter(product, mask, complement)))
        << "complement " << complement;
    EXPECT_TRUE(info.used_pb);
  }
  SpGemmOp bad;
  bad.mask = &a;  // right shape...
  const mtx::CsrMatrix wrong = testutil::exact_er(150, 100, 2.0, 44);
  bad.mask = &wrong;  // ...wrong shape: rejected at analysis
  EXPECT_THROW((void)exec.run(p, bad), std::invalid_argument);
}

TEST(Executor, AccumulatingRunCombinesWithTheSemiringAdd) {
  const mtx::CsrMatrix a = testutil::exact_er(120, 120, 4.0, 45);
  const mtx::CsrMatrix c0 = testutil::exact_er(120, 120, 5.0, 46);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  const mtx::CsrMatrix c = exec.run(p, op, c0);
  EXPECT_TRUE(mtx::equal_exact(c, mtx::add(c0, reference_spgemm(p))));
}

// ---- plan cache: hits, eviction, alternation ------------------------------

TEST(Executor, AlternatingStructuresHitTheCache) {
  const mtx::CsrMatrix big = testutil::exact_er(300, 300, 6.0, 47);
  const mtx::CsrMatrix small = testutil::exact_er(120, 120, 4.0, 48);
  const SpGemmProblem pb_ = SpGemmProblem::square(big);
  const SpGemmProblem ps = SpGemmProblem::square(small);
  const mtx::CsrMatrix eb = reference_spgemm(pb_);
  const mtx::CsrMatrix es = reference_spgemm(ps);

  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(mtx::equal_exact(exec.run(pb_, op), eb));
    EXPECT_TRUE(mtx::equal_exact(exec.run(ps, op), es));
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.executes, 6u);
  EXPECT_EQ(s.cache_misses, 2u);  // one analysis per structure, ever
  EXPECT_EQ(s.cache_hits, 4u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_NEAR(s.hit_ratio(), 4.0 / 6.0, 1e-12);
}

TEST(Executor, CapacityOneReplansOnEveryFlip) {
  // The pre-executor behavior as a configuration: a single cached plan
  // alternating between two structures re-analyzes every time.
  ExecutorOptions eo;
  eo.cache_capacity = 1;
  SpGemmExecutor exec(eo);
  const SpGemmProblem pa =
      SpGemmProblem::square(testutil::exact_er(200, 200, 5.0, 49));
  const SpGemmProblem pb_ =
      SpGemmProblem::square(testutil::exact_er(150, 150, 5.0, 50));
  SpGemmOp op;
  op.algo = "pb";
  for (int round = 0; round < 3; ++round) {
    (void)exec.run(pa, op);
    (void)exec.run(pb_, op);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 6u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.evictions, 5u);
}

TEST(Executor, LruEvictsTheLeastRecentlyUsedEntry) {
  ExecutorOptions eo;
  eo.cache_capacity = 2;
  SpGemmExecutor exec(eo);
  const SpGemmProblem pa =
      SpGemmProblem::square(testutil::exact_er(100, 100, 4.0, 51));
  const SpGemmProblem pb_ =
      SpGemmProblem::square(testutil::exact_er(110, 110, 4.0, 52));
  const SpGemmProblem pc =
      SpGemmProblem::square(testutil::exact_er(120, 120, 4.0, 53));
  SpGemmOp op;
  op.algo = "pb";
  (void)exec.run(pa, op);  // miss {A}
  (void)exec.run(pb_, op); // miss {B A}
  (void)exec.run(pa, op);  // hit  {A B}
  (void)exec.run(pc, op);  // miss {C A}, evicts B (least recently used)
  (void)exec.run(pa, op);  // hit  {A C}
  (void)exec.run(pb_, op); // miss again: B was evicted
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 4u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.evictions, 2u);
}

TEST(Executor, ByteBudgetLiftsTheEntryCountBound) {
  // Byte mode: cache_capacity (1 entry here) is ignored; a generous byte
  // budget holds every structure, so the second round is all hits.
  ExecutorOptions eo;
  eo.cache_capacity = 1;
  eo.cache_capacity_bytes = 64u << 20;
  SpGemmExecutor exec(eo);
  SpGemmOp op;
  op.algo = "pb";
  std::vector<SpGemmProblem> problems;
  for (int i = 0; i < 4; ++i) {
    problems.push_back(SpGemmProblem::square(
        testutil::exact_er(100 + 20 * i, 100 + 20 * i, 4.0, 60 + i)));
  }
  for (int round = 0; round < 2; ++round) {
    for (const SpGemmProblem& p : problems) (void)exec.run(p, op);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 4u);
  EXPECT_EQ(s.cache_hits, 4u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.cache_entries, 4u);
  EXPECT_GT(s.cache_bytes, 0u);
  EXPECT_EQ(s.bytes_evicted, 0u);
}

TEST(Executor, ByteBudgetEvictsDownToTheTargetButKeepsTheNewestEntry) {
  // A budget no entry can fit under still caches the most recent plan
  // (the budget is a target, not a hard cap), evicting the previous one
  // on every flip and accounting for the reclaimed bytes.
  ExecutorOptions eo;
  eo.cache_capacity_bytes = 1;
  SpGemmExecutor exec(eo);
  const SpGemmProblem pa =
      SpGemmProblem::square(testutil::exact_er(120, 120, 4.0, 64));
  const SpGemmProblem pb_ =
      SpGemmProblem::square(testutil::exact_er(140, 140, 4.0, 65));
  SpGemmOp op;
  op.algo = "pb";
  for (int round = 0; round < 2; ++round) {
    (void)exec.run(pa, op);
    (void)exec.run(pb_, op);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 4u);  // the survivor is always the other one
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.evictions, 3u);
  EXPECT_EQ(s.cache_entries, 1u);
  EXPECT_GT(s.cache_bytes, 0u);
  EXPECT_GT(s.bytes_evicted, 0u);
  // Back-to-back repeats of one structure still hit: the newest entry
  // survives its own insert.
  (void)exec.run(pa, op);  // evicts B
  (void)exec.run(pa, op);
  EXPECT_EQ(exec.stats().cache_hits, 1u);
}

TEST(Executor, OpIdentityKeysTheCacheAlongsideStructure) {
  // Two descriptors on one structure are two entries; flipping between
  // them never replans once both are cached.
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(200, 200, 5.0, 54));
  SpGemmExecutor exec;
  SpGemmOp times;
  times.algo = "pb";
  SpGemmOp minplus;
  minplus.algo = "pb";
  minplus.semiring = MinPlus::name;
  for (int round = 0; round < 3; ++round) {
    (void)exec.run(p, times);
    (void)exec.run(p, minplus);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.cache_hits, 4u);
}

TEST(Executor, FixedBaselineOpsArePassthrough) {
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(100, 100, 4.0, 55));
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "hash";
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  EXPECT_TRUE(mtx::equal_exact(c, reference_spgemm(p)));
  EXPECT_TRUE(info.passthrough);
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.passthrough, 1u);
  EXPECT_EQ(s.cache_hits + s.cache_misses, 0u);
}

// ---- value-only fast path -------------------------------------------------

TEST(Executor, ValueOnlyRunSkipsAnalysisAndStaysCorrect) {
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 5.0, 56);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  (void)exec.run(p, op);  // populate the cache

  const mtx::CsrMatrix a2 = scale_values(a, 3.0);
  const SpGemmProblem p2 = SpGemmProblem::square(a2);
  RunInfo info;
  const mtx::CsrMatrix c = exec.run_values_updated(p2, op, &info);
  EXPECT_TRUE(info.cache_hit);
  EXPECT_TRUE(info.value_only);
  EXPECT_TRUE(mtx::equal_exact(c, reference_spgemm(p2)));
  EXPECT_EQ(exec.stats().value_only_hits, 1u);

  // No dims+nnz match on file: transparently falls back to the full
  // fingerprinted path (and caches the new structure).
  const SpGemmProblem other =
      SpGemmProblem::square(testutil::exact_er(180, 180, 4.0, 57));
  RunInfo fallback;
  const mtx::CsrMatrix co = exec.run_values_updated(other, op, &fallback);
  EXPECT_FALSE(fallback.value_only);
  EXPECT_FALSE(fallback.cache_hit);
  EXPECT_TRUE(mtx::equal_exact(co, reference_spgemm(other)));
}

TEST(Executor, SameAggregateStructuresGetDistinctCacheEntries) {
  // Regression for the fingerprint's structural hash: two permutation
  // matrices share dims, nnz and flop(P²) — every aggregate the
  // fingerprint held before the hash — so without it the second structure
  // would false-hit the first one's cached plan and run through a stale
  // bin layout.
  constexpr index_t n = 512;
  const auto permutation = [](bool reversed) {
    mtx::CsrMatrix m(n, n);
    for (index_t r = 0; r < n; ++r) {
      m.rowptr[static_cast<std::size_t>(r) + 1] = r + 1;
      m.colids.push_back(reversed ? n - 1 - r : r);
      m.vals.push_back(1.0);
    }
    return m;
  };
  const mtx::CsrMatrix ident = permutation(false);
  const mtx::CsrMatrix rev = permutation(true);
  const SpGemmProblem pi = SpGemmProblem::square(ident);
  const SpGemmProblem pr = SpGemmProblem::square(rev);

  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  EXPECT_TRUE(mtx::equal_exact(exec.run(pi, op), reference_spgemm(pi)));
  EXPECT_TRUE(mtx::equal_exact(exec.run(pr, op), reference_spgemm(pr)));
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 2u);  // distinct entries, no false hit
  EXPECT_EQ(s.cache_hits, 0u);
}

// ---- concurrent serving ---------------------------------------------------

TEST(ExecutorConcurrency, MixedSemiringsAndMasksFromCallerThreadsMatchSerial) {
  // Caller threads multiplying different descriptors (semirings, mask
  // polarities, auto) through one executor at once: each run leases its
  // own workspace, so the results must equal a serial executor's, and
  // once every op is prepared no race re-analyzes.
  const mtx::CsrMatrix a = testutil::exact_er(220, 220, 5.0, 91);
  const mtx::CsrMatrix mask = testutil::exact_er(220, 220, 2.0, 92);
  const SpGemmProblem p = SpGemmProblem::square(a);

  std::vector<SpGemmOp> ops(5);
  ops[0].algo = "pb";
  ops[1].algo = "pb";
  ops[1].semiring = MinPlus::name;
  ops[2].algo = "pb";
  ops[2].mask = &mask;
  ops[3].algo = "pb";
  ops[3].mask = &mask;
  ops[3].complement = true;
  ops[4].algo = "auto";

  SpGemmExecutor serial;
  std::vector<mtx::CsrMatrix> want;
  for (const SpGemmOp& op : ops) want.push_back(serial.run(p, op));

  SpGemmExecutor exec;
  for (const SpGemmOp& op : ops) exec.prepare(p, op);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<mtx::CsrMatrix>> got(
      kThreads, std::vector<mtx::CsrMatrix>(ops.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      set_threads(1);
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the ops from a different start, so different
        // descriptors overlap in time.
        for (std::size_t k = 0; k < ops.size(); ++k) {
          const std::size_t i = (k + static_cast<std::size_t>(t)) % ops.size();
          got[static_cast<std::size_t>(t)][i] = exec.run(p, ops[i]);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_TRUE(
          mtx::equal_exact(got[static_cast<std::size_t>(t)][i], want[i]))
          << "thread " << t << ", op " << i;
    }
  }
  const ExecutorStats s = exec.stats();
  const auto runs = static_cast<std::uint64_t>(kThreads * kRounds) * ops.size();
  EXPECT_EQ(s.executes, runs);
  EXPECT_EQ(s.cache_misses, static_cast<std::uint64_t>(ops.size()));
  EXPECT_EQ(s.cache_hits, runs);
  EXPECT_EQ(exec.pool_stats().in_flight, 0u);
}

TEST(ExecutorConcurrency, FourThreadsThroughOneCachedPlan) {
  const mtx::CsrMatrix base = testutil::exact_er(250, 250, 5.0, 60);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  {
    const SpGemmProblem warm = SpGemmProblem::square(base);
    (void)exec.run(warm, op);  // one analysis, then serve from the cache
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    // Values mutate between rounds (the serving pattern: same structure,
    // fresh numbers); every thread multiplies the same problem.
    const mtx::CsrMatrix m =
        scale_values(base, static_cast<value_t>(round + 1));
    const SpGemmProblem p = SpGemmProblem::square(m);
    const mtx::CsrMatrix expected = reference_spgemm(p);

    std::vector<mtx::CsrMatrix> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        set_threads(1);  // serving config: one OpenMP lane per request
        results[static_cast<std::size_t>(t)] =
            exec.run_values_updated(p, op);
      });
    }
    for (std::thread& th : threads) th.join();
    for (const mtx::CsrMatrix& r : results) {
      EXPECT_TRUE(mtx::equal_exact(r, expected)) << "round " << round;
    }
  }

  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.executes, 1u + kThreads * kRounds);
  EXPECT_EQ(s.cache_misses, 1u);  // the warmup analysis; everything else hit
  EXPECT_EQ(s.value_only_hits,
            static_cast<std::uint64_t>(kThreads * kRounds));
  const pb::WorkspacePool::Stats ps = exec.pool_stats();
  // Concurrency bounds the pool: at most one workspace per thread, and
  // most leases are served by returned (warm) workspaces.  Whether leases
  // actually overlapped depends on scheduling, so overlap itself is not
  // asserted.
  EXPECT_LE(ps.created, static_cast<std::uint64_t>(kThreads));
  EXPECT_GT(ps.reused, 0u);
}

TEST(ExecutorConcurrency, ConcurrentRunsAcrossTwoCachedStructures) {
  const SpGemmProblem pa =
      SpGemmProblem::square(testutil::exact_er(220, 220, 5.0, 61));
  const SpGemmProblem pb_ =
      SpGemmProblem::square(testutil::exact_er(160, 160, 5.0, 62));
  const mtx::CsrMatrix ea = reference_spgemm(pa);
  const mtx::CsrMatrix eb = reference_spgemm(pb_);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  (void)exec.run(pa, op);
  (void)exec.run(pb_, op);

  constexpr int kThreads = 4;
  std::vector<mtx::CsrMatrix> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      set_threads(1);
      const SpGemmProblem& mine = t % 2 == 0 ? pa : pb_;
      for (int i = 0; i < 3; ++i) {
        results[static_cast<std::size_t>(t)] = exec.run(mine, op);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mtx::equal_exact(results[static_cast<std::size_t>(t)],
                                 t % 2 == 0 ? ea : eb))
        << "thread " << t;
  }
  EXPECT_EQ(exec.stats().cache_misses, 2u);  // races never re-analyzed
}

// ---- calibration ----------------------------------------------------------

TEST(SelectionCalibrate, RecoversSyntheticDeratingConstants) {
  const model::SelectionModel defaults;
  const double true_pb_eff = 0.6;
  const double true_penalty = 5.0;
  std::vector<model::PerfSample> samples;
  for (const double cf : {1.0, 1.5, 2.0, 3.0, 6.0, 12.0, 24.0}) {
    const model::AlgoChoice c =
        model::select_algorithm(cf, 1 << 20, true, defaults);
    // Invert the default derating to the underated bound, then apply the
    // ground-truth derating: that is what a machine with these constants
    // would have measured.
    const double pb_underated = c.pb_mflops / defaults.pb_efficiency;
    samples.push_back({"pb", c.cf, c.pb_mflops, pb_underated * true_pb_eff});
    const double col_eff_pred =
        c.cf / (c.cf + defaults.column_latency_penalty);
    const double col_underated = c.column_mflops / col_eff_pred;
    const double col_eff_true = c.cf / (c.cf + true_penalty);
    samples.push_back(
        {"hash", c.cf, c.column_mflops, col_underated * col_eff_true});
  }

  model::SelectionModel fit;
  const model::CalibrationResult r = fit.calibrate(samples);
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(r.pb_samples, 7);
  EXPECT_EQ(r.column_samples, 7);
  EXPECT_NEAR(fit.pb_efficiency, true_pb_eff, 0.02);
  EXPECT_NEAR(fit.column_latency_penalty, true_penalty, 0.25);

  // Degenerate/empty samples leave the model untouched.
  model::SelectionModel untouched;
  const model::CalibrationResult none = untouched.calibrate({});
  EXPECT_FALSE(none.changed);
  EXPECT_EQ(untouched.pb_efficiency, defaults.pb_efficiency);
}

TEST(Executor, CalibratesItsSelectionModelAfterTheWarmup) {
  ExecutorOptions eo;
  eo.calibrate_after = 3;
  SpGemmExecutor exec(eo);
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(300, 300, 6.0, 63));
  SpGemmOp op;  // auto: unmasked executes record samples
  for (int i = 0; i < 5; ++i) (void)exec.run(p, op);
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.calibrations, 1u);
  // The refitted constants drive future analyses and stay in range.
  const model::SelectionModel m = exec.selection_model();
  EXPECT_GT(m.pb_efficiency, 0.0);
  EXPECT_LE(m.pb_efficiency, 1.0);
  EXPECT_GE(m.column_latency_penalty, 0.0);
  // The sample window restarted after the refit.
  EXPECT_LT(exec.samples().size(), 3u);
}

// ---- structural-only masked estimate --------------------------------------

TEST(MaskedEstimate, PerRowCapSharpensTheGlobalBound) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 64);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const std::vector<nnz_t> rf = mtx::row_flops(p.a_csr, p.b_csr);
  const nnz_t unmasked = pb::pb_estimate_nnz_c(rf, p.b_csr.ncols);

  const mtx::CsrMatrix sparse_mask = testutil::exact_er(300, 300, 1.5, 65);
  const nnz_t masked = pb::pb_estimate_nnz_c_masked(rf, sparse_mask);
  EXPECT_LE(masked, unmasked);
  EXPECT_LE(masked, sparse_mask.nnz());
  EXPECT_GT(masked, 0);

  // An identity mask caps every row at one surviving entry.
  const mtx::CsrMatrix eye = mtx::CsrMatrix::identity(300);
  EXPECT_LE(pb::pb_estimate_nnz_c_masked(rf, eye), 300);

  // Shape mismatch is rejected.
  const mtx::CsrMatrix wrong = testutil::exact_er(200, 300, 2.0, 66);
  EXPECT_THROW((void)pb::pb_estimate_nnz_c_masked(rf, wrong),
               std::invalid_argument);
}

// ---- prepare, then run ------------------------------------------------------

TEST(ExecutorPlan, PrepareThenRunMissesOnceThenHits) {
  const mtx::CsrMatrix big = testutil::exact_er(300, 300, 6.0, 70);
  const mtx::CsrMatrix small = testutil::exact_er(120, 120, 4.0, 71);
  const SpGemmProblem pb_ = SpGemmProblem::square(big);
  const SpGemmProblem ps = SpGemmProblem::square(small);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  RunInfo info;
  exec.prepare(pb_, op, &info);  // the one analysis of this structure
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(info.algo, "pb");
  EXPECT_GT(info.flop, 0);
  EXPECT_GT(info.plan_seconds, 0.0);
  EXPECT_TRUE(
      mtx::equal_exact(exec.run(pb_, op, &info), reference_spgemm(pb_)));
  EXPECT_TRUE(info.cache_hit);
  EXPECT_TRUE(mtx::equal_exact(exec.run(ps, op, &info), reference_spgemm(ps)));
  EXPECT_FALSE(info.cache_hit);  // only the small structure was ever new
  // Flipping BACK is a hit: the cache still holds the first structure.
  EXPECT_TRUE(
      mtx::equal_exact(exec.run(pb_, op, &info), reference_spgemm(pb_)));
  EXPECT_TRUE(info.cache_hit);
  EXPECT_TRUE(mtx::equal_exact(exec.run(ps, op, &info), reference_spgemm(ps)));
  EXPECT_TRUE(info.cache_hit);
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.executes, 4u);  // prepare analyzes but does not execute
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.cache_hits, 3u);
}

TEST(ExecutorPlan, RunValuesUpdatedAfterPrepareReplaysNumericStagesOnly) {
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 5.0, 72);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  exec.prepare(p, op);

  const mtx::CsrMatrix a2 = scale_values(a, 2.0);
  const SpGemmProblem p2 = SpGemmProblem::square(a2);
  RunInfo info;
  const mtx::CsrMatrix c = exec.run_values_updated(p2, op, &info);
  EXPECT_TRUE(mtx::equal_exact(c, reference_spgemm(p2)));
  EXPECT_TRUE(info.value_only);
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(info.pb_stats.symbolic.seconds, 0.0);
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.executes, 1u);
  EXPECT_EQ(s.cache_misses, 1u);  // the prepare
  EXPECT_EQ(s.value_only_hits, 1u);
}

}  // namespace
}  // namespace pbs
