#include "serve/shard.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/errors.hpp"
#include "common/numa.hpp"
#include "pb/partitioned.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace pbs::serve {

namespace {

/// Best-effort affinity to one NUMA node's cpu set.  A no-op when the
/// topology is unknown or single-node — then first-touch already lands
/// everything on the only node there is.
void pin_to_node(int node) {
#ifdef __linux__
  const NumaTopology& topo = numa_topology();
  if (topo.nnodes <= 1 || topo.cpu_to_node.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (std::size_t cpu = 0; cpu < topo.cpu_to_node.size(); ++cpu) {
    if (topo.cpu_to_node[cpu] == node && cpu < CPU_SETSIZE) {
      CPU_SET(cpu, &set);
      any = true;
    }
  }
  if (any) (void)sched_setaffinity(0, sizeof(set), &set);
#else
  (void)node;
#endif
}

/// Re-bases a tile's column ids into the global column space: the tile
/// computed columns [col_lo, col_lo + tile.ncols) of a ncols-wide C.
mtx::CsrMatrix widen_cols(const mtx::CsrMatrix& tile, index_t col_lo,
                          index_t ncols) {
  mtx::CsrMatrix out = tile;
  out.ncols = ncols;
  for (index_t& c : out.colids) c += col_lo;
  return out;
}

}  // namespace

ShardRouter::ShardRouter(ShardOptions opts)
    : rows_(std::max(opts.rows, 1)),
      cols_(std::max(opts.cols, 1)),
      pin_numa_(opts.pin_numa) {
  shards_.reserve(static_cast<std::size_t>(nshards()));
  for (int s = 0; s < nshards(); ++s) {
    shards_.push_back(std::make_unique<SpGemmExecutor>(opts.executor));
  }
}

mtx::CsrMatrix ShardRouter::run(const SpGemmProblem& p, const SpGemmOp& op,
                                const RunOptions& ropts, RunInfo* info) {
  return run_impl(p, op, ropts, info, /*values_only=*/false);
}

mtx::CsrMatrix ShardRouter::run_values_updated(const SpGemmProblem& p,
                                               const SpGemmOp& op,
                                               const RunOptions& ropts,
                                               RunInfo* info) {
  return run_impl(p, op, ropts, info, /*values_only=*/true);
}

mtx::CsrMatrix ShardRouter::run_impl(const SpGemmProblem& p,
                                     const SpGemmOp& op,
                                     const RunOptions& ropts, RunInfo* info,
                                     bool values_only) {
  if (nshards() == 1) {
    return values_only ? shards_[0]->run_values_updated(p, op, ropts, info)
                       : shards_[0]->run(p, op, ropts, info);
  }
  if (p.a_csr.ncols != p.b_csr.nrows) {
    throw std::invalid_argument("ShardRouter: dimensions differ");
  }

  const index_t nrows = p.a_csr.nrows;
  const index_t ncols = p.b_csr.ncols;
  const std::vector<index_t> rb = pb::split_ranges(nrows, rows_);
  const std::vector<index_t> cb = pb::split_ranges(ncols, cols_);

  const int n = nshards();
  std::vector<mtx::CsrMatrix> tiles(static_cast<std::size_t>(n));
  std::vector<RunInfo> infos(static_cast<std::size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  const int nnodes = numa_topology().nnodes;

  for (int s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      try {
        if (pin_numa_) pin_to_node(s % nnodes);
        const int r = s / cols_;
        const int c = s % cols_;
        // Slice on the shard's own thread: with pinning, first touch
        // places every tile operand on the shard's node.
        const mtx::CsrMatrix a_tile =
            pb::slice_rows(p.a_csr, rb[static_cast<std::size_t>(r)],
                           rb[static_cast<std::size_t>(r) + 1]);
        const mtx::CsrMatrix b_tile =
            pb::slice_cols(p.b_csr, cb[static_cast<std::size_t>(c)],
                           cb[static_cast<std::size_t>(c) + 1]);
        mtx::CsrMatrix mask_tile;
        SpGemmOp tile_op = op;
        if (op.mask != nullptr) {
          mask_tile = pb::slice_cols(
              pb::slice_rows(*op.mask, rb[static_cast<std::size_t>(r)],
                             rb[static_cast<std::size_t>(r) + 1]),
              cb[static_cast<std::size_t>(c)],
              cb[static_cast<std::size_t>(c) + 1]);
          tile_op.mask = &mask_tile;
        }
        const SpGemmProblem tp = SpGemmProblem::multiply(a_tile, b_tile);
        auto& exec = *shards_[static_cast<std::size_t>(s)];
        tiles[static_cast<std::size_t>(s)] =
            values_only
                ? exec.run_values_updated(tp, tile_op, ropts,
                                          &infos[static_cast<std::size_t>(s)])
                : exec.run(tp, tile_op, ropts,
                           &infos[static_cast<std::size_t>(s)]);
      } catch (...) {
        errors[static_cast<std::size_t>(s)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Root-cause preference: a tile that failed for a real reason beats
  // tiles that merely got cancelled in its wake.
  std::exception_ptr first;
  std::exception_ptr non_cancel;
  for (const std::exception_ptr& e : errors) {
    if (e == nullptr) continue;
    if (first == nullptr) first = e;
    if (non_cancel == nullptr) {
      try {
        std::rethrow_exception(e);
      } catch (const CancelledError&) {
      } catch (...) {
        non_cancel = e;
      }
    }
  }
  if (non_cancel != nullptr) std::rethrow_exception(non_cancel);
  if (first != nullptr) std::rethrow_exception(first);

  // Merge: per row block, fold the widened column tiles with the
  // semiring's e-wise add (disjoint patterns: values copy through), then
  // stack the row blocks.
  std::vector<mtx::CsrMatrix> row_blocks;
  row_blocks.reserve(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) {
    mtx::CsrMatrix merged =
        widen_cols(tiles[static_cast<std::size_t>(r * cols_)], cb[0], ncols);
    for (int c = 1; c < cols_; ++c) {
      merged = semiring_ewise_add(
          op.semiring, merged,
          widen_cols(tiles[static_cast<std::size_t>(r * cols_ + c)],
                     cb[static_cast<std::size_t>(c)], ncols));
    }
    row_blocks.push_back(std::move(merged));
  }
  mtx::CsrMatrix out = pb::stack_row_blocks(row_blocks, nrows, ncols);

  if (info != nullptr) {
    *info = infos[0];
    for (int s = 1; s < n; ++s) {
      const RunInfo& i = infos[static_cast<std::size_t>(s)];
      info->cache_hit = info->cache_hit && i.cache_hit;
      info->value_only = info->value_only && i.value_only;
      info->used_pb = info->used_pb || i.used_pb;
      if (i.degraded && !info->degraded) {
        info->degraded = true;
        info->degrade_reason = i.degrade_reason;
      }
      info->plan_seconds += i.plan_seconds;
      info->flop += i.flop;
    }
  }
  return out;
}

void ShardRouter::cancel() {
  for (const auto& s : shards_) s->cancel();
}

std::vector<ExecutorStats> ShardRouter::shard_stats() const {
  std::vector<ExecutorStats> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s->stats());
  return out;
}

ExecutorStats ShardRouter::aggregate_stats() const {
  ExecutorStats agg;
  for (const auto& s : shards_) {
    const ExecutorStats st = s->stats();
    agg.executes += st.executes;
    agg.cache_hits += st.cache_hits;
    agg.cache_misses += st.cache_misses;
    agg.value_only_hits += st.value_only_hits;
    agg.passthrough += st.passthrough;
    agg.evictions += st.evictions;
    agg.cache_entries += st.cache_entries;
    agg.cache_bytes += st.cache_bytes;
    agg.bytes_evicted += st.bytes_evicted;
    agg.calibrations += st.calibrations;
    agg.degraded_plans += st.degraded_plans;
    agg.degraded_runs += st.degraded_runs;
    agg.oom_fallbacks += st.oom_fallbacks;
    agg.cancelled += st.cancelled;
  }
  return agg;
}

}  // namespace pbs::serve
