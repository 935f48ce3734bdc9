// Epilogue helpers for the execution paths that cannot fuse.
//
// The PB pipeline applies SpGemmOp::post_op inside its per-bin filter
// stage and merges an accumulation target during CSR conversion
// (pb/sort_compress.hpp, pb/output.hpp), so the shaped output
// is the only one that ever exists.  The row-wise kernels (heap, hash,
// spa) and the executor's degraded/fallback runs produce the plain
// product; this header gives them the same semantics as one post-pass:
//
//   apply_post_op(c, op)   — scale / prune / top-k in place, row by row,
//                            bit-identical in selection and ordering to
//                            the fused pb path (scale first, prune
//                            |v| < threshold, top-k by (|v| desc, col
//                            asc), survivors in ascending column order)
//   accumulate             — semiring_ewise_add (spgemm/op.hpp) IS the
//                            row-merge post-pass; the fused pb builders
//                            are verified bit-identical against it
//
// Keeping the unfused epilogue in one place is what lets the executor
// guarantee "same result, different traffic" across every algo.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/post_op.hpp"
#include "matrix/csr.hpp"

namespace pbs {

/// Applies the post-op to one row segment [begin, end) of (colids, vals),
/// compacting survivors to the front of the segment in ascending column
/// order.  Returns the survivor count.  `sel` is caller-provided scratch
/// so a parallel driver reuses one allocation per thread.
inline nnz_t post_op_row(const PostOp& op, index_t* colids, value_t* vals,
                         nnz_t begin, nnz_t end,
                         std::vector<std::pair<double, nnz_t>>& sel) {
  sel.clear();
  for (nnz_t t = begin; t < end; ++t) {
    const double av = std::abs(vals[t]);
    if (op.prune_threshold > 0 && av < op.prune_threshold) continue;
    sel.emplace_back(av, t);
  }
  // (|v| desc, index asc) — within a row index order is column order, so
  // this is the same total order the fused pb filter and
  // mtx::keep_top_k_per_row select under.
  const auto larger = [](const std::pair<double, nnz_t>& x,
                         const std::pair<double, nnz_t>& y) {
    return x.first > y.first || (x.first == y.first && x.second < y.second);
  };
  if (op.top_k > 0 && sel.size() > static_cast<std::size_t>(op.top_k)) {
    const auto kth = sel.begin() + (op.top_k - 1);
    std::nth_element(sel.begin(), kth, sel.end(), larger);
    const auto cut = *kth;
    sel.erase(std::remove_if(sel.begin(), sel.end(),
                             [&](const std::pair<double, nnz_t>& e) {
                               return larger(cut, e);
                             }),
              sel.end());
    std::sort(sel.begin(), sel.end(),
              [](const std::pair<double, nnz_t>& x,
                 const std::pair<double, nnz_t>& y) {
                return x.second < y.second;
              });
  }
  nnz_t out = begin;
  for (const auto& e : sel) {
    if (e.second != out) {
      colids[out] = colids[e.second];
      vals[out] = vals[e.second];
    }
    ++out;
  }
  return out - begin;
}

/// Applies `op` to a finished CSR matrix in place — the unfused epilogue
/// the executor runs after row-wise kernels and fallback executions.
/// Scale rewrites values; prune/top-k compact the matrix (rowptr shrinks).
/// No-op when the post-op is the identity.
inline void apply_post_op(mtx::CsrMatrix& c, const PostOp& op) {
  if (!op.active()) return;
  if (op.scale != 1.0) {
    const nnz_t n = c.nnz();
    parallel_for(Static{}, n,
                 [&](nnz_t i) noexcept { c.vals[i] *= op.scale; });
  }
  if (!op.drops_entries()) return;

  // Pass 1: per-row selection, survivors compacted to the front of each
  // row's original segment (rows are independent — safe in parallel).
  std::vector<nnz_t> kept(static_cast<std::size_t>(c.nrows) + 1, 0);
  parallel_team([&](Team& team) {
    std::vector<std::pair<double, nnz_t>> sel;
    team.for_each(Dynamic{64}, c.nrows, [&](index_t r) {
      kept[static_cast<std::size_t>(r) + 1] = post_op_row(
          op, c.colids.data(), c.vals.data(), c.rowptr[r], c.rowptr[r + 1],
          sel);
    });
  });
  for (index_t r = 0; r < c.nrows; ++r) kept[r + 1] += kept[r];

  // Pass 2: close the gaps between rows.
  DefaultInitVector<index_t> colids(static_cast<std::size_t>(kept[c.nrows]));
  DefaultInitVector<value_t> vals(colids.size());
  parallel_for(Static{}, c.nrows, [&](index_t r) noexcept {
    const nnz_t src = c.rowptr[r];
    const nnz_t dst = kept[r];
    const nnz_t n = kept[r + 1] - dst;
    std::copy_n(c.colids.begin() + src, n, colids.begin() + dst);
    std::copy_n(c.vals.begin() + src, n, vals.begin() + dst);
  });
  c.rowptr = std::move(kept);
  c.colids = std::move(colids);
  c.vals = std::move(vals);
}

}  // namespace pbs
