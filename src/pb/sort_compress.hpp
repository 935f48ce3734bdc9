// PB-SpGEMM sort + compress phases (paper Algorithm 2, lines 19-21;
// Secs. III-D, III-E).
//
// Bins never share a (rowid, colid), so every bin is sorted and compressed
// independently — one bin per thread, bins over threads.  Sort and compress
// are *fused per bin*: a bin sized for L2 is radix-sorted and immediately
// two-pointer-merged while still cache-hot, which is what lets the paper
// charge the compress phase only its output writes (Table III).
//
// The phase is templated on the semiring and on the tuple-stream policy
// (pb/tuple.hpp): the duplicate merge combines equal-key tuples with
// S::add.  Tuples whose values combine to S::zero() are kept — structural
// presence under exact cancellation matches spgemm_semiring and the
// numeric convention, so the output pattern is semiring-independent.  The
// key-only stream has no values, so its merge is a pure duplicate drop:
// every distinct key survives, exactly as the valued formats keep
// exact-cancellation survivors, so its pattern is bit-identical to a wide
// run of the same value-free semiring.
//
// A fused output mask (SpGemmOp, pb_config.hpp's MaskSpec) is applied here
// too: immediately after a bin's duplicate merge — while the bin is still
// cache-hot — survivors whose (row, col) misses the mask's pattern (or
// hits it, complemented) are compacted away, so the conversion phase never
// sees them and the masked output costs only its own writes.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "pb/binning.hpp"
#include "pb/pb_config.hpp"
#include "pb/pb_spgemm.hpp"
#include "pb/tuple.hpp"
#include "spgemm/semiring_ops.hpp"

namespace pbs::pb {

struct SortCompressResult {
  /// Surviving (post-compression, post-mask) tuple count per bin; size
  /// nbins.
  std::vector<nnz_t> merged;
  /// Tuples the mask filter dropped across all bins (0 unmasked); the
  /// pre-mask merged total is Σ merged + mask_dropped.
  nnz_t mask_dropped = 0;
  /// Entries the fused elementwise post-op removed across all bins
  /// (prune/top-k; 0 when the post-op is inactive or a pure scale).
  nnz_t post_dropped = 0;
  /// Busy-time estimates for the two sub-phases: the maximum across
  /// threads of each thread's accumulated in-phase time (≈ wall time when
  /// bins balance).
  double sort_seconds = 0;
  double compress_seconds = 0;
};

namespace detail {

/// Two-pointer in-place merge (paper Sec. III-E): p1 scans, p2 marks the
/// last surviving tuple.  Duplicates combine with the semiring add;
/// survivors stay even when the combined value is S::zero().  The scan
/// runs over the keys alone and each surviving tuple moves exactly once.
template <typename S, typename St>
nnz_t compress_bin(const St& t, std::size_t len) {
  std::size_t p2 = 0;
  for (std::size_t p1 = 1; p1 < len; ++p1) {
    if (t.key(p1) == t.key(p2)) {
      if constexpr (St::kHasValues) {
        t.set_val(p2, S::add(t.val(p2), t.val(p1)));
      }
    } else {
      t.move(p1, ++p2);
    }
  }
  return static_cast<nnz_t>(p2 + 1);
}

/// Compacts a compressed bin in place, keeping the tuples whose (row, col)
/// membership in the mask's pattern matches the polarity; returns the
/// survivor count.  Tuples arrive (row, col)-sorted, so each row is one
/// merge-scan against that sorted mask row — O(merged + touched mask
/// entries), run while the bin is still cache-hot.
template <typename RowOf, typename ColOf, typename Move>
nnz_t mask_filter_bin(nnz_t merged, const mtx::CsrMatrix& mask,
                      bool complement, RowOf row_of, ColOf col_of,
                      Move move) {
  nnz_t kept = 0;
  index_t cur_row = -1;
  std::span<const index_t> mcols;
  std::size_t m = 0;
  for (nnz_t i = 0; i < merged; ++i) {
    const index_t r = row_of(i);
    if (r != cur_row) {
      cur_row = r;
      mcols = mask.row_cols(r);
      m = 0;
    }
    const index_t c = col_of(i);
    while (m < mcols.size() && mcols[m] < c) ++m;
    const bool in_mask = m < mcols.size() && mcols[m] == c;
    if (in_mask != complement) {
      if (kept != i) move(i, kept);
      ++kept;
    }
  }
  return kept;
}

/// Applies the fused elementwise post-op to a compressed (and mask-
/// filtered) bin in place.  Tuples are key-sorted, so each output row is
/// one contiguous, column-ascending segment: scale rewrites values, prune
/// drops |v| < threshold, and top-k keeps the row's k largest-|v| entries
/// (ties toward smaller columns — the same selection
/// mtx::keep_top_k_per_row makes) with survivors compacted in ascending
/// column order.  `row_of` only segments the scan, so bin-local row ids
/// serve as well as global ones.  Returns the survivor count.
template <typename RowOf, typename GetVal, typename SetVal, typename Move>
nnz_t post_op_bin(nnz_t kept, const PostOp& op, RowOf row_of, GetVal get_val,
                  SetVal set_val, Move move) {
  if (op.scale != 1.0) {
    for (nnz_t i = 0; i < kept; ++i) set_val(i, get_val(i) * op.scale);
  }
  if (!op.drops_entries()) return kept;

  std::vector<std::pair<double, nnz_t>> sel;  // top-k scratch: (|v|, index)
  const auto larger = [](const std::pair<double, nnz_t>& x,
                         const std::pair<double, nnz_t>& y) {
    return x.first > y.first || (x.first == y.first && x.second < y.second);
  };
  nnz_t out = 0;
  for (nnz_t i = 0; i < kept;) {
    const auto r = row_of(i);
    nnz_t j = i + 1;
    while (j < kept && row_of(j) == r) ++j;

    sel.clear();
    for (nnz_t t = i; t < j; ++t) {
      const double av = std::abs(get_val(t));
      if (op.prune_threshold > 0 && av < op.prune_threshold) continue;
      sel.emplace_back(av, t);
    }
    if (op.top_k > 0 && sel.size() > static_cast<std::size_t>(op.top_k)) {
      // The k-th entry under (|v| desc, col asc) is the cutoff; keeping
      // everything at or before it selects exactly k (indices are
      // distinct, so the order is total).
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
    for (const auto& e : sel) {
      if (e.second != out) move(e.second, out);
      ++out;
    }
    i = j;
  }
  return out;
}

}  // namespace detail

/// Sorts each bin [offsets[b], offsets[b] + fill[b]) of `stream` by key,
/// then compresses duplicates in place with S::add (survivors packed at
/// the bin's front).  Thread-over-bins: per bin, sort, compress, the mask
/// filter and the post-op run back to back while the bin is cache-hot;
/// sort is timed into its own sub-phase and the rest into compress.
///
/// When `workspace` is non-null its per-thread scratch pool serves the
/// radix-sort scratch, so repeated calls allocate nothing; otherwise each
/// call allocates thread-local scratch.  A non-null active `mask`
/// additionally drops masked-out survivors in place; bin-relative keys
/// decode through (`layout`, `col_bits`), which must then be the stream's
/// own (SymbolicResult::layout / col_bits) — global keys need neither.
/// A non-null `cancel` token is polled per bin; a fired token skips the
/// remaining bins and raises its typed error after the parallel join.
/// An active `post` applies the fused elementwise post-op
/// (common/post_op.hpp) to each bin right after the mask filter, per row
/// segment; the key-only stream has no values, so there it is the
/// identity (pb_execute rejects the combination).
template <typename S, TupleStreamView St>
SortCompressResult pb_sort_compress(St stream, std::span<const nnz_t> offsets,
                                    std::span<const nnz_t> fill, int nbins,
                                    PbWorkspace* workspace = nullptr,
                                    const MaskSpec& mask = {},
                                    const BinLayout* layout = nullptr,
                                    int col_bits = 0,
                                    const CancelToken* cancel = nullptr,
                                    const PostOp& post = {}) {
  using Codec = typename St::Codec;
  const KeyGeometry geo(layout, col_bits);
  SortCompressResult out;
  out.merged.assign(static_cast<std::size_t>(nbins), 0);

  const int nthreads = max_threads();
  std::vector<double> sort_busy(static_cast<std::size_t>(nthreads), 0.0);
  std::vector<double> compress_busy(static_cast<std::size_t>(nthreads), 0.0);
  std::vector<nnz_t> dropped(static_cast<std::size_t>(nthreads), 0);
  std::vector<nnz_t> pdropped(static_cast<std::size_t>(nthreads), 0);

  // Per-thread scratch for the LSD sort, sized to the largest bin this
  // thread will touch.  Bins are capped at half of L2, so bin + scratch
  // stay cache-resident (see common/radix_sort.hpp).  A workspace serves
  // the scratch from its pool; without one each thread allocates its own.
  nnz_t max_bin = 0;
  for (int bin = 0; bin < nbins; ++bin) {
    max_bin = std::max(max_bin, fill[static_cast<std::size_t>(bin)]);
  }
  const auto scratch_n = static_cast<std::size_t>(max_bin);
  if (workspace != nullptr) workspace->prepare_scratch(nthreads);

  // Exception safety inside the parallel region follows the ok-flag
  // pattern: every thread ALWAYS reaches the `omp for` (a thread that
  // skipped it would strand the team at the worksharing barrier), so
  // failures — scratch allocation (budget/fault/OOM) or per-bin work —
  // are caught per thread, the first one is captured, an internal abort
  // token turns the remaining iterations into no-ops, and the exception
  // rethrows after the join.  The abort token also links the caller's
  // cancel token, so one per-bin poll covers both.
  std::exception_ptr error;
  CancelToken abort;
  abort.link(cancel);
  auto fail = [&] {
#pragma omp critical(pbs_sort_compress_error)
    {
      if (error == nullptr) error = std::current_exception();
    }
    abort.request_cancel();
  };

#pragma omp parallel num_threads(nthreads)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    bool ok = true;
    AlignedBuffer<std::byte> local;  // scratch when there is no workspace
    St scratch;
    try {
      if (workspace != nullptr) {
        scratch = workspace->acquire_scratch<St>(tid, scratch_n);
      } else {
        local.allocate(St::bytes(scratch_n));
        scratch = St::carve(local.data(), scratch_n);
      }
    } catch (...) {
      ok = false;
      fail();
    }
    Timer timer;
#pragma omp for schedule(dynamic, 1)
    for (int bin = 0; bin < nbins; ++bin) {
      if (!ok || abort.stop_requested()) continue;
      const St t = stream.at(offsets[static_cast<std::size_t>(bin)]);
      const auto len =
          static_cast<std::size_t>(fill[static_cast<std::size_t>(bin)]);
      if (len == 0) continue;

      try {
        FaultInjector::on_bin();
        timer.reset();
        t.sort(len, scratch, scratch_n);
        sort_busy[tid] += timer.elapsed_s();

        timer.reset();
        const nnz_t merged = detail::compress_bin<S>(t, len);
        const auto move = [&](nnz_t src, nnz_t dst) {
          t.move(static_cast<std::size_t>(src), static_cast<std::size_t>(dst));
        };
        nnz_t kept = merged;
        if (mask.active()) {
          kept = detail::mask_filter_bin(
              merged, *mask.csr, mask.complement,
              [&](nnz_t i) { return decode_row<Codec>(t.key(i), bin, geo); },
              [&](nnz_t i) { return Codec::col(t.key(i), geo); }, move);
        }
        nnz_t final_kept = kept;
        if (St::kHasValues && post.active()) {
          // Row segmentation needs only the key's row bits, no decode.
          final_kept = detail::post_op_bin(
              kept, post,
              [&](nnz_t i) { return Codec::row_bits(t.key(i), geo); },
              [&](nnz_t i) { return t.val(i); },
              [&](nnz_t i, value_t v) { t.set_val(i, v); }, move);
        }
        out.merged[static_cast<std::size_t>(bin)] = final_kept;
        dropped[tid] += merged - kept;
        pdropped[tid] += kept - final_kept;
        compress_busy[tid] += timer.elapsed_s();
      } catch (...) {
        ok = false;
        fail();
      }
    }
  }

  if (error != nullptr) std::rethrow_exception(error);
  throw_if_stopped(cancel);

  out.sort_seconds = *std::max_element(sort_busy.begin(), sort_busy.end());
  out.compress_seconds =
      *std::max_element(compress_busy.begin(), compress_busy.end());
  for (const nnz_t d : dropped) out.mask_dropped += d;
  for (const nnz_t d : pdropped) out.post_dropped += d;
  return out;
}

// Named wide and narrow forms of the phase call above.  perfbench/'s
// run_phases calls them with these exact signatures, and that directory is
// frozen by BENCHMARK.json, so they stay as one-line forwarders.

/// Wide-format sort+compress over AoS tuples (global keys: the mask filter
/// needs no layout).
template <typename S>
SortCompressResult pb_sort_compress(Tuple* tuples,
                                    std::span<const nnz_t> offsets,
                                    std::span<const nnz_t> fill, int nbins,
                                    PbWorkspace* workspace = nullptr,
                                    const MaskSpec& mask = {},
                                    const CancelToken* cancel = nullptr,
                                    const PostOp& post = {}) {
  return pb_sort_compress<S>(WideStream{tuples}, offsets, fill, nbins,
                             workspace, mask, nullptr, 0, cancel, post);
}

/// Narrow-format sort+compress over the SoA key + value arrays.
template <typename S>
SortCompressResult pb_sort_compress_narrow(narrow_key_t* keys, value_t* vals,
                                           std::span<const nnz_t> offsets,
                                           std::span<const nnz_t> fill,
                                           int nbins,
                                           PbWorkspace* workspace = nullptr,
                                           const MaskSpec& mask = {},
                                           const BinLayout* layout = nullptr,
                                           int col_bits = 0,
                                           const CancelToken* cancel = nullptr,
                                           const PostOp& post = {}) {
  return pb_sort_compress<S>(NarrowStream{keys, vals}, offsets, fill, nbins,
                             workspace, mask, layout, col_bits, cancel, post);
}

}  // namespace pbs::pb
