// Template definitions for the fused sort + compress phase (see
// sort_compress.hpp).  Included by sort_compress.cpp, which explicitly
// instantiates pb_sort_compress<S> for the built-in semirings — include
// this header directly only to instantiate a custom semiring.
#pragma once

#include "pb/sort_compress.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/radix_sort.hpp"
#include "common/timer.hpp"
#include "pb/pb_spgemm.hpp"

namespace pbs::pb {

namespace detail {

/// Shared skeleton of the two sort+compress formats: thread-over-bins with
/// per-thread scratch and per-sub-phase busy-time accounting.
/// `make_scratch(tid, max_bin)` builds one thread's scratch handle (owning
/// its fallback buffers when there is no workspace); per bin,
/// `sort_bin(off, len, scratch)` then `compress_bin(off, len) -> merged`
/// then `filter_bin(bin, off, merged) -> kept` (the fused mask; identity
/// when unmasked) then `post_bin(bin, off, kept) -> final` (the fused
/// elementwise post-op; identity when inactive) run back to back while the
/// bin is cache-hot.  Sort is timed into its own sub-phase; compress,
/// filter and post share the compress sub-phase.
template <typename MakeScratch, typename SortBin, typename CompressBin,
          typename FilterBin, typename PostBin>
SortCompressResult sort_compress_driver(std::span<const nnz_t> offsets,
                                        std::span<const nnz_t> fill,
                                        int nbins, PbWorkspace* workspace,
                                        MakeScratch make_scratch,
                                        SortBin sort_bin,
                                        CompressBin compress_bin,
                                        FilterBin filter_bin,
                                        PostBin post_bin,
                                        const CancelToken* cancel = nullptr) {
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

#pragma omp parallel num_threads(nthreads)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    bool ok = true;
    using Scratch = std::invoke_result_t<MakeScratch, std::size_t, std::size_t>;
    std::optional<Scratch> scratch;
    try {
      scratch.emplace(make_scratch(tid, static_cast<std::size_t>(max_bin)));
    } catch (...) {
      ok = false;
#pragma omp critical(pbs_sc_driver_error)
      {
        if (error == nullptr) error = std::current_exception();
      }
      abort.request_cancel();
    }
    Timer timer;
#pragma omp for schedule(dynamic, 1)
    for (int bin = 0; bin < nbins; ++bin) {
      if (!ok || abort.stop_requested()) continue;
      const nnz_t off = offsets[static_cast<std::size_t>(bin)];
      const auto len =
          static_cast<std::size_t>(fill[static_cast<std::size_t>(bin)]);
      if (len == 0) continue;

      try {
        FaultInjector::on_bin();
        timer.reset();
        sort_bin(off, len, *scratch);
        sort_busy[tid] += timer.elapsed_s();

        timer.reset();
        const nnz_t merged = compress_bin(off, len);
        const nnz_t kept = filter_bin(bin, off, merged);
        const nnz_t final_kept = post_bin(bin, off, kept);
        out.merged[static_cast<std::size_t>(bin)] = final_kept;
        dropped[tid] += merged - kept;
        pdropped[tid] += kept - final_kept;
        compress_busy[tid] += timer.elapsed_s();
      } catch (...) {
        ok = false;
#pragma omp critical(pbs_sc_driver_error)
        {
          if (error == nullptr) error = std::current_exception();
        }
        abort.request_cancel();
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

/// Per-bin wide-format operations, which pb_execute maps over all bins
/// behind an `omp for`.  Holds only pointers: cheap to copy into each
/// thread.
template <typename S>
struct WideBinOps {
  Tuple* tuples = nullptr;
  const MaskSpec* mask = nullptr;
  const PostOp* post = nullptr;

  // The wide sort runs as SoA under the hood: the AoS bin is deinterleaved
  // into a u64 key + f64 value pair carved from the scratch, sorted with
  // radix_sort_lsd_kv (histogram and bit-scan passes read the 8 B keys
  // instead of streaming 16 B records) ping-ponging against the bin's own
  // storage, then reinterleaved back.  A scratch sized for max_bin tuples
  // (16 B each) is exactly one key array + one value array of max_bin, so
  // bin + scratch keep the same L2 footprint as the AoS sort they replace.
  void sort(nnz_t off, std::size_t len, Tuple* scratch,
            std::size_t max_bin) const {
    if (len < 2) return;
    auto* sbase = reinterpret_cast<std::byte*>(scratch);
    auto* ks = reinterpret_cast<std::uint64_t*>(sbase);
    auto* vs =
        reinterpret_cast<value_t*>(sbase + max_bin * sizeof(std::uint64_t));
    Tuple* t = tuples + off;
    for (std::size_t i = 0; i < len; ++i) {
      ks[i] = t[i].key;
      vs[i] = t[i].val;
    }
    // Ping-pong scratch carved from the bin's own storage (16 B/tuple
    // = one u64 + one f64); the sort's result always lands back in
    // (ks, vs), from where the bin is reinterleaved.
    auto* bbase = reinterpret_cast<std::byte*>(t);
    auto* kb = reinterpret_cast<std::uint64_t*>(bbase);
    auto* vb = reinterpret_cast<value_t*>(bbase + len * sizeof(std::uint64_t));
    radix_sort_lsd_kv(ks, vs, len, kb, vb);
    for (std::size_t i = 0; i < len; ++i) {
      t[i].key = ks[i];
      t[i].val = vs[i];
    }
  }

  // Two-pointer in-place merge (paper Sec. III-E): p1 scans, p2 marks
  // the last surviving tuple.  Duplicates combine with the semiring
  // add; survivors stay even when the combined value is S::zero().
  nnz_t compress(nnz_t off, std::size_t len) const {
    Tuple* t = tuples + off;
    std::size_t p2 = 0;
    for (std::size_t p1 = 1; p1 < len; ++p1) {
      if (t[p1].key == t[p2].key) {
        t[p2].val = S::add(t[p2].val, t[p1].val);
      } else {
        t[++p2] = t[p1];
      }
    }
    return static_cast<nnz_t>(p2 + 1);
  }

  // Fused mask: wide keys carry global (row, col) directly.
  nnz_t filter(int /*bin*/, nnz_t off, nnz_t merged) const {
    if (!mask->active()) return merged;
    Tuple* t = tuples + off;
    return detail::mask_filter_bin(
        merged, *mask->csr, mask->complement,
        [&](nnz_t i) { return key_row(t[i].key); },
        [&](nnz_t i) { return key_col(t[i].key); },
        [&](nnz_t src, nnz_t dst) { t[dst] = t[src]; });
  }

  // Fused elementwise post-op, applied after the mask filter.
  nnz_t post_apply(nnz_t off, nnz_t kept) const {
    if (post == nullptr || !post->active()) return kept;
    Tuple* t = tuples + off;
    return detail::post_op_bin(
        kept, *post, [&](nnz_t i) { return key_row(t[i].key); },
        [&](nnz_t i) { return t[i].val; },
        [&](nnz_t i, value_t v) { t[i].val = v; },
        [&](nnz_t src, nnz_t dst) { t[dst] = t[src]; });
  }
};

template <typename S>
SortCompressResult pb_sort_compress(Tuple* tuples,
                                    std::span<const nnz_t> offsets,
                                    std::span<const nnz_t> fill, int nbins,
                                    PbWorkspace* workspace,
                                    const MaskSpec& mask,
                                    const CancelToken* cancel,
                                    const PostOp& post) {
  const WideBinOps<S> ops{tuples, &mask, &post};
  struct Scratch {
    AlignedBuffer<Tuple> local;  // fallback when there is no workspace
    Tuple* data = nullptr;
    std::size_t max_bin = 0;
  };
  return detail::sort_compress_driver(
      offsets, fill, nbins, workspace,
      [&](std::size_t tid, std::size_t max_bin) {
        Scratch s;
        if (workspace != nullptr) {
          s.data = workspace->acquire_scratch(tid, max_bin);
        } else {
          s.local.allocate(max_bin);
          s.data = s.local.data();
        }
        s.max_bin = max_bin;
        return s;
      },
      [&](nnz_t off, std::size_t len, Scratch& scratch) {
        ops.sort(off, len, scratch.data, scratch.max_bin);
      },
      [&](nnz_t off, std::size_t len) { return ops.compress(off, len); },
      [&](int bin, nnz_t off, nnz_t merged) {
        return ops.filter(bin, off, merged);
      },
      [&](int /*bin*/, nnz_t off, nnz_t kept) {
        return ops.post_apply(off, kept);
      },
      cancel);
}

/// Key-only counterpart of WideBinOps; same contract.  There is no value
/// array and therefore no semiring anywhere in this struct: the sort is a
/// bare keys-only LSD radix sort (no payload lane in the scatter passes),
/// and compress degenerates to a pure duplicate drop — `S::add` is gone
/// because a value-free semiring's combine cannot change presence.  The
/// structural exact-cancellation convention holds trivially: compress
/// keeps every distinct key regardless of what the values would have
/// combined to, which is exactly what the valued formats do (they keep
/// tuples whose values combine to S::zero()), so the output pattern is
/// bit-identical to a wide run of the same value-free semiring.
struct KeyOnlyBinOps {
  wide_key_t* keys = nullptr;
  const MaskSpec* mask = nullptr;

  void sort(nnz_t off, std::size_t len, wide_key_t* scratch) const {
    radix_sort_lsd_keys(keys + off, len, scratch);
  }

  nnz_t compress(nnz_t off, std::size_t len) const {
    wide_key_t* k = keys + off;
    std::size_t p2 = 0;
    for (std::size_t p1 = 1; p1 < len; ++p1) {
      if (k[p1] != k[p2]) k[++p2] = k[p1];
    }
    return static_cast<nnz_t>(p2 + 1);
  }

  // Fused mask: key-only keys are the wide global (row, col) codec.
  nnz_t filter(int /*bin*/, nnz_t off, nnz_t merged) const {
    if (!mask->active()) return merged;
    wide_key_t* k = keys + off;
    return detail::mask_filter_bin(
        merged, *mask->csr, mask->complement,
        [&](nnz_t i) { return key_row(k[i]); },
        [&](nnz_t i) { return key_col(k[i]); },
        [&](nnz_t src, nnz_t dst) { k[dst] = k[src]; });
  }
};

/// Narrow-format counterpart of WideBinOps; same contract.
template <typename S>
struct NarrowBinOps {
  narrow_key_t* keys = nullptr;
  value_t* vals = nullptr;
  const MaskSpec* mask = nullptr;
  const PostOp* post = nullptr;
  const BinLayout* layout = nullptr;
  int col_bits = 0;

  void sort(nnz_t off, std::size_t len, const NarrowStream& scratch) const {
    radix_sort_lsd_kv(keys + off, vals + off, len, scratch.keys,
                      scratch.vals);
  }

  // Same merge as the wide path in SoA form: the scan runs over the key
  // array alone and each surviving tuple's value is compacted exactly once.
  nnz_t compress(nnz_t off, std::size_t len) const {
    narrow_key_t* k = keys + off;
    value_t* v = vals + off;
    std::size_t p2 = 0;
    for (std::size_t p1 = 1; p1 < len; ++p1) {
      if (k[p1] == k[p2]) {
        v[p2] = S::add(v[p2], v[p1]);
      } else {
        ++p2;
        k[p2] = k[p1];
        v[p2] = v[p1];
      }
    }
    return static_cast<nnz_t>(p2 + 1);
  }

  // Fused mask: narrow keys decode to global coordinates through the
  // stream's bin geometry.
  nnz_t filter(int bin, nnz_t off, nnz_t merged) const {
    if (!mask->active()) return merged;
    narrow_key_t* k = keys + off;
    value_t* v = vals + off;
    return detail::mask_filter_bin(
        merged, *mask->csr, mask->complement,
        [&](nnz_t i) {
          return layout->global_row(bin,
                                    narrow_key_local_row(k[i], col_bits));
        },
        [&](nnz_t i) { return narrow_key_col(k[i], col_bits); },
        [&](nnz_t src, nnz_t dst) {
          k[dst] = k[src];
          v[dst] = v[src];
        });
  }

  // Fused elementwise post-op: row segmentation needs only the key's
  // bin-local row bits, no layout decode.
  nnz_t post_apply(nnz_t off, nnz_t kept) const {
    if (post == nullptr || !post->active()) return kept;
    narrow_key_t* k = keys + off;
    value_t* v = vals + off;
    return detail::post_op_bin(
        kept, *post,
        [&](nnz_t i) { return narrow_key_local_row(k[i], col_bits); },
        [&](nnz_t i) { return v[i]; },
        [&](nnz_t i, value_t nv) { v[i] = nv; },
        [&](nnz_t src, nnz_t dst) {
          k[dst] = k[src];
          v[dst] = v[src];
        });
  }
};

template <typename S>
SortCompressResult pb_sort_compress_narrow(narrow_key_t* keys, value_t* vals,
                                           std::span<const nnz_t> offsets,
                                           std::span<const nnz_t> fill,
                                           int nbins, PbWorkspace* workspace,
                                           const MaskSpec& mask,
                                           const BinLayout* layout,
                                           int col_bits,
                                           const CancelToken* cancel,
                                           const PostOp& post) {
  const NarrowBinOps<S> ops{keys, vals, &mask, &post, layout, col_bits};
  struct Scratch {
    AlignedBuffer<narrow_key_t> local_keys;  // fallbacks without a workspace
    AlignedBuffer<value_t> local_vals;
    NarrowStream stream;
  };
  return detail::sort_compress_driver(
      offsets, fill, nbins, workspace,
      [&](std::size_t tid, std::size_t max_bin) {
        Scratch s;
        if (workspace != nullptr) {
          s.stream = workspace->acquire_scratch_narrow(tid, max_bin);
        } else {
          s.local_keys.allocate(max_bin);
          s.local_vals.allocate(max_bin);
          s.stream = {s.local_keys.data(), s.local_vals.data()};
        }
        return s;
      },
      [&](nnz_t off, std::size_t len, Scratch& scratch) {
        ops.sort(off, len, scratch.stream);
      },
      [&](nnz_t off, std::size_t len) { return ops.compress(off, len); },
      [&](int bin, nnz_t off, nnz_t merged) {
        return ops.filter(bin, off, merged);
      },
      [&](int /*bin*/, nnz_t off, nnz_t kept) {
        return ops.post_apply(off, kept);
      },
      cancel);
}

/// Narrow-f32 counterpart of NarrowBinOps; same contract.  The duplicate
/// merge widens to double for S::add and narrows the combined value back,
/// so the semiring's algebra is unchanged — only the stream width is.
template <typename S>
struct NarrowF32BinOps {
  narrow_key_t* keys = nullptr;
  f32_val_t* vals = nullptr;
  const MaskSpec* mask = nullptr;
  const PostOp* post = nullptr;
  const BinLayout* layout = nullptr;
  int col_bits = 0;

  void sort(nnz_t off, std::size_t len,
            const NarrowF32Stream& scratch) const {
    radix_sort_lsd_kv(keys + off, vals + off, len, scratch.keys,
                      scratch.vals);
  }

  nnz_t compress(nnz_t off, std::size_t len) const {
    narrow_key_t* k = keys + off;
    f32_val_t* v = vals + off;
    std::size_t p2 = 0;
    for (std::size_t p1 = 1; p1 < len; ++p1) {
      if (k[p1] == k[p2]) {
        v[p2] = static_cast<f32_val_t>(
            S::add(static_cast<value_t>(v[p2]), static_cast<value_t>(v[p1])));
      } else {
        ++p2;
        k[p2] = k[p1];
        v[p2] = v[p1];
      }
    }
    return static_cast<nnz_t>(p2 + 1);
  }

  nnz_t filter(int bin, nnz_t off, nnz_t merged) const {
    if (!mask->active()) return merged;
    narrow_key_t* k = keys + off;
    f32_val_t* v = vals + off;
    return detail::mask_filter_bin(
        merged, *mask->csr, mask->complement,
        [&](nnz_t i) {
          return layout->global_row(bin,
                                    narrow_key_local_row(k[i], col_bits));
        },
        [&](nnz_t i) { return narrow_key_col(k[i], col_bits); },
        [&](nnz_t src, nnz_t dst) {
          k[dst] = k[src];
          v[dst] = v[src];
        });
  }

  // Fused elementwise post-op; values widen to double around the knobs and
  // narrow back on store, matching the compress merge's convention.
  nnz_t post_apply(nnz_t off, nnz_t kept) const {
    if (post == nullptr || !post->active()) return kept;
    narrow_key_t* k = keys + off;
    f32_val_t* v = vals + off;
    return detail::post_op_bin(
        kept, *post,
        [&](nnz_t i) { return narrow_key_local_row(k[i], col_bits); },
        [&](nnz_t i) { return static_cast<value_t>(v[i]); },
        [&](nnz_t i, value_t nv) { v[i] = static_cast<f32_val_t>(nv); },
        [&](nnz_t src, nnz_t dst) {
          k[dst] = k[src];
          v[dst] = v[src];
        });
  }
};

template <typename S>
SortCompressResult pb_sort_compress_narrow_f32(
    narrow_key_t* keys, f32_val_t* vals, std::span<const nnz_t> offsets,
    std::span<const nnz_t> fill, int nbins, PbWorkspace* workspace,
    const MaskSpec& mask, const BinLayout* layout, int col_bits,
    const CancelToken* cancel, const PostOp& post) {
  const NarrowF32BinOps<S> ops{keys, vals, &mask, &post, layout, col_bits};
  struct Scratch {
    AlignedBuffer<narrow_key_t> local_keys;  // fallbacks without a workspace
    AlignedBuffer<f32_val_t> local_vals;
    NarrowF32Stream stream;
  };
  return detail::sort_compress_driver(
      offsets, fill, nbins, workspace,
      [&](std::size_t tid, std::size_t max_bin) {
        Scratch s;
        if (workspace != nullptr) {
          s.stream = workspace->acquire_scratch_narrow_f32(tid, max_bin);
        } else {
          s.local_keys.allocate(max_bin);
          s.local_vals.allocate(max_bin);
          s.stream = {s.local_keys.data(), s.local_vals.data()};
        }
        return s;
      },
      [&](nnz_t off, std::size_t len, Scratch& scratch) {
        ops.sort(off, len, scratch.stream);
      },
      [&](nnz_t off, std::size_t len) { return ops.compress(off, len); },
      [&](int bin, nnz_t off, nnz_t merged) {
        return ops.filter(bin, off, merged);
      },
      [&](int /*bin*/, nnz_t off, nnz_t kept) {
        return ops.post_apply(off, kept);
      },
      cancel);
}

}  // namespace pbs::pb
