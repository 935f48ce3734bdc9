// "Buffer and stitch" CSR assembly shared by the single-pass row-wise
// algorithms (heap, SPA).
//
// Rows are processed in fixed blocks; each block appends its entries to a
// private buffer, so no symbolic pass is needed and results are independent
// of the OpenMP schedule.  A final prefix-sum + parallel copy stitches the
// blocks into one canonical CSR matrix.  Each thread brings its own row
// scratch (accumulators, heaps, mask stamps) as a local of the region.
#pragma once

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/parallel.hpp"
#include "common/prefix_sum.hpp"
#include "matrix/csr.hpp"

namespace pbs::detail {

inline constexpr index_t kRowsPerBlock = 256;

struct BlockBuffer {
  std::vector<index_t> cols;
  std::vector<value_t> vals;
  std::vector<nnz_t> row_counts;  // per row in the block
};

/// Runs `body(scratch, row, block_buffer)` for every row (grouped in
/// blocks, blocks in parallel); `body` must append the row's entries in
/// ascending column order.  `scratch` is this thread's own object, made by
/// `make_scratch()` at the start of the region — which must not throw, so
/// anything it needs to allocate is allocated lazily by `body`.  Returns
/// the assembled CSR.
template <typename MakeScratch, typename RowFn>
mtx::CsrMatrix assemble_rowwise(index_t nrows, index_t ncols,
                                MakeScratch make_scratch, RowFn body) {
  static_assert(std::is_nothrow_invocable_v<MakeScratch>,
                "scratch is made outside the region's error protocol");
  const index_t nblocks =
      nrows == 0 ? 0 : (nrows + kRowsPerBlock - 1) / kRowsPerBlock;
  std::vector<BlockBuffer> blocks(static_cast<std::size_t>(nblocks));

  parallel_team([&](Team& team) {
    auto scratch = make_scratch();
    team.for_each(Dynamic{1}, nblocks, [&](index_t blk) {
      BlockBuffer& buf = blocks[blk];
      const index_t lo = blk * kRowsPerBlock;
      const index_t hi = std::min<index_t>(nrows, lo + kRowsPerBlock);
      buf.row_counts.reserve(static_cast<std::size_t>(hi - lo));
      for (index_t r = lo; r < hi; ++r) {
        const std::size_t before = buf.cols.size();
        body(scratch, r, buf);
        buf.row_counts.push_back(static_cast<nnz_t>(buf.cols.size() - before));
      }
    });
  });

  mtx::CsrMatrix out(nrows, ncols);
  // Stitch: block base offsets, then per-row pointers, then parallel copy.
  std::vector<nnz_t> block_base(static_cast<std::size_t>(nblocks) + 1, 0);
  for (index_t blk = 0; blk < nblocks; ++blk)
    block_base[static_cast<std::size_t>(blk)] =
        static_cast<nnz_t>(blocks[blk].cols.size());
  exclusive_scan_inplace(block_base.data(), static_cast<std::size_t>(nblocks));
  const nnz_t total = block_base[static_cast<std::size_t>(nblocks)];

  out.colids.resize(static_cast<std::size_t>(total));
  out.vals.resize(static_cast<std::size_t>(total));

  parallel_for(Dynamic{1}, nblocks, [&](index_t blk) noexcept {
    const BlockBuffer& buf = blocks[blk];
    const index_t lo = blk * kRowsPerBlock;
    nnz_t pos = block_base[blk];
    // Row pointers for this block's rows.
    nnz_t acc = pos;
    for (std::size_t i = 0; i < buf.row_counts.size(); ++i) {
      out.rowptr[static_cast<std::size_t>(lo) + i + 1] = acc + buf.row_counts[i];
      acc += buf.row_counts[i];
    }
    std::copy(buf.cols.begin(), buf.cols.end(), out.colids.begin() + pos);
    std::copy(buf.vals.begin(), buf.vals.end(), out.vals.begin() + pos);
  });

  // rowptr[r+1] was only written for rows inside blocks; rowptr[0] is 0 and
  // empty trailing rows (when nrows == 0) need no fixup.  Rows are covered
  // exactly once by construction.
  return out;
}

}  // namespace pbs::detail
