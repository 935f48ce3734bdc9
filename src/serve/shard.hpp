// 2D tile shard router — the row decomposition of pb_spgemm_partitioned
// (pb/partitioned.hpp) generalized to a row×column grid of independent
// executors.
//
// CombBLAS-style 2D decomposition (Buluç & Gilbert) splits both operands
// over a process grid; the in-node analogue here splits A row-wise and B
// column-wise, so tile (r, c) computes the full C[rows_r, cols_c] block:
// the k-dimension is NOT split, every tile sees A's full column range and
// B's full row range.  That is what makes the route bit-identical to a
// single-executor run — each output entry's accumulation order over k is
// unchanged in every kernel (Gustavson walks k ascending; PB's stable
// radix sort preserves the expand emission order), the tiles' output
// patterns are disjoint by construction, and the merge just re-bases
// column ids and concatenates row blocks.  The per-row-block fold still
// goes through semiring_ewise_add — on disjoint patterns the semiring add
// degenerates to a copy, so the merge is the semiring-correct operation,
// not a shortcut that would break on overlapping tiles.
//
// Each tile is served by its own long-lived SpGemmExecutor (own plan
// cache, own workspace pool), and the fan-out thread for shard s pins
// itself to NUMA node s % nnodes before touching the slices — the
// multi-socket mitigation of paper Sec. V-D applied to serving: a shard's
// slices, bins and sort scratch stay on the socket that computes them.
#pragma once

#include <memory>
#include <vector>

#include "spgemm/executor.hpp"

namespace pbs::serve {

struct ShardOptions {
  int rows = 1;  ///< row blocks of A (and of C)
  int cols = 1;  ///< column blocks of B (and of C)
  /// Pin each shard's fan-out thread to NUMA node (shard % nnodes).
  /// Best-effort and inert on single-node hosts.
  bool pin_numa = true;
  /// Options for every per-shard executor (cache budget, memory budget,
  /// validation are all per shard).
  ExecutorOptions executor;
};

/// Routes one multiply across the tile grid and merges the results.
/// Thread-safe: concurrent run() calls fan out over the same per-shard
/// executors (which are themselves thread-safe).
class ShardRouter {
 public:
  explicit ShardRouter(ShardOptions opts = {});

  [[nodiscard]] int shard_rows() const { return rows_; }
  [[nodiscard]] int shard_cols() const { return cols_; }
  [[nodiscard]] int nshards() const { return rows_ * cols_; }

  /// A·B under op, tiled across the grid.  On a 1×1 grid this is exactly
  /// SpGemmExecutor::run.  `info`, when given, reports the (0,0) tile's
  /// telemetry with cache_hit/value_only/degraded aggregated as "true
  /// only if every tile says so".  Throws like the executor; when tiles
  /// fail differently, a non-cancellation cause wins.
  mtx::CsrMatrix run(const SpGemmProblem& p, const SpGemmOp& op,
                     const RunOptions& ropts = {}, RunInfo* info = nullptr);

  /// Value-only fast path, tiled: every tile runs run_values_updated, so
  /// a structure-stable iterative workload skips re-analysis on every
  /// shard.
  mtx::CsrMatrix run_values_updated(const SpGemmProblem& p,
                                    const SpGemmOp& op,
                                    const RunOptions& ropts = {},
                                    RunInfo* info = nullptr);

  /// Cancels in-flight runs on every shard executor.
  void cancel();

  /// Per-shard executor stats, row-major over the grid.
  [[nodiscard]] std::vector<ExecutorStats> shard_stats() const;

  /// Element-wise sum of shard_stats() — the aggregate the telemetry
  /// endpoint reports.
  [[nodiscard]] ExecutorStats aggregate_stats() const;

 private:
  mtx::CsrMatrix run_impl(const SpGemmProblem& p, const SpGemmOp& op,
                          const RunOptions& ropts, RunInfo* info,
                          bool values_only);

  int rows_ = 1;
  int cols_ = 1;
  bool pin_numa_ = true;
  std::vector<std::unique_ptr<SpGemmExecutor>> shards_;
};

}  // namespace pbs::serve
