// Template definitions for the expand phase (see expand.hpp for the
// algorithm description).  Included by expand.cpp, which explicitly
// instantiates pb_expand<S> / pb_expand_narrow<S> for the built-in
// semirings — include this header directly only to instantiate a custom
// semiring.
#pragma once

#include "pb/expand.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <atomic>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cancel.hpp"

namespace pbs::pb {

namespace detail {

// Flush copy: when the destination is cache-line aligned and the block is
// whole lines, use non-temporal stores — full-line writes with no
// read-for-ownership traffic, which is what lets the expand phase approach
// STREAM bandwidth (paper Sec. III-C).  Symbolic pads bin regions so full
// flushes stay aligned; partial drain flushes fall back to memcpy.  One
// template serves both formats: wide flushes move Tuple lines, narrow
// flushes move a key block and a value block separately (non-temporal on
// both).
template <typename T>
inline void flush_copy(T* dst, const T* src, int count,
                       [[maybe_unused]] bool streaming) {
  const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
#if defined(__SSE2__)
  if (streaming && (reinterpret_cast<std::uintptr_t>(dst) & 63u) == 0 &&
      bytes % 64 == 0) {
    const auto* s = reinterpret_cast<const __m128i*>(src);
    auto* d = reinterpret_cast<__m128i*>(dst);
    const std::size_t blocks = bytes / sizeof(__m128i);
    for (std::size_t i = 0; i < blocks; ++i)
      _mm_stream_si128(d + i, _mm_load_si128(s + i));
    return;
  }
#endif
  std::memcpy(dst, src, bytes);
}

inline void flush_fence() {
#if defined(__SSE2__)
  _mm_sfence();  // make non-temporal stores visible before the sort phase
#endif
}

// The expand kernel is templated on the binning policy so the binid
// computation in the inner loop is a shift/mask, not a switch.
template <BinPolicy P>
int fast_binid(const BinLayout& layout, index_t row) {
  if constexpr (P == BinPolicy::kRange) {
    return static_cast<int>(row >> layout.shift);
  } else if constexpr (P == BinPolicy::kModulo) {
    return static_cast<int>(static_cast<std::uint32_t>(row) & layout.mask);
  } else {
    return layout.binid(row);
  }
}

// Bin-relative row for the narrow key, same specialization idea as
// fast_binid.  `mod_shift` is layout.modulo_shift(), hoisted by the caller
// so the modulo case is a plain shift here.
template <BinPolicy P>
index_t fast_local_row(const BinLayout& layout, int bin, index_t row,
                       int mod_shift) {
  if constexpr (P == BinPolicy::kRange) {
    return static_cast<index_t>(static_cast<std::uint32_t>(row) &
                                ((std::uint32_t{1} << layout.shift) - 1u));
  } else if constexpr (P == BinPolicy::kModulo) {
    return row >> mod_shift;
  } else {
    (void)mod_shift;
    return row - layout.bounds[static_cast<std::size_t>(bin)];
  }
}

// The per-(output row, B row) mask merge used by all four expand kernels:
// the B row's columns and the mask row's columns are both ascending, so
// one forward scan of the mask row per pair decides every candidate
// tuple.  Keep when membership != complement; kept candidates are passed
// to `emit(bi)`.
template <typename Emit>
inline void masked_scan(std::span<const index_t> bcols,
                        std::span<const index_t> mrow, bool complement,
                        Emit&& emit) {
  std::size_t mi = 0;
  for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
    const index_t c = bcols[bi];
    while (mi < mrow.size() && mrow[mi] < c) ++mi;
    const bool in_mask = mi < mrow.size() && mrow[mi] == c;
    if (in_mask != complement) emit(bi);
  }
}

// One write cursor per global bin, starting at the bin's region origin.
inline std::vector<std::atomic<nnz_t>> bin_cursors(const SymbolicResult& sym) {
  std::vector<std::atomic<nnz_t>> cursor(
      static_cast<std::size_t>(sym.layout.nbins));
  for (std::size_t bin = 0; bin < cursor.size(); ++bin)
    cursor[bin].store(sym.bin_offsets[bin], std::memory_order_relaxed);
  return cursor;
}

// After the expand region joins: reads each bin's cursor back as its
// generated fill (`actual_fill`, when non-null) and, under cfg.validate,
// checks it against the symbolic fill mark.  A masked scatter legitimately
// stops short of the mark; an unmasked one must hit it exactly.  A
// cancelled run leaves bins short, so it skips the check.
inline void finish_expand(const std::vector<std::atomic<nnz_t>>& cursor,
                          const SymbolicResult& sym, const PbConfig& cfg,
                          const MaskSpec& emask, nnz_t* actual_fill,
                          const char* who) {
  const bool check = cfg.validate && !(cfg.cancel != nullptr &&
                                       cfg.cancel->stop_requested_now());
  for (std::size_t bin = 0; bin < cursor.size(); ++bin) {
    const nnz_t end = cursor[bin].load(std::memory_order_relaxed);
    if (actual_fill != nullptr) actual_fill[bin] = end - sym.bin_offsets[bin];
    const nnz_t mark = sym.bin_offsets[bin] + sym.bin_fill[bin];
    if (check && (emask.active() ? end > mark : end != mark)) {
      throw std::logic_error(std::string(who) + ": bin " +
                             std::to_string(bin) +
                             " cursor does not meet its fill mark");
    }
  }
}

// Wide expand.  Each thread routes its columns' tuples through
// thread-private local bins and flushes a full local bin to the global
// bin's shared write cursor.  Returns the team's flush count.
template <BinPolicy P, typename S>
nnz_t expand_impl(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                  const SymbolicResult& sym, const PbConfig& cfg, Tuple* out,
                  const MaskSpec& emask, nnz_t* actual_fill) {
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  const int cap =
      std::max<int>(1, cfg.local_bin_bytes / static_cast<int>(sizeof(Tuple)));
  const bool masked = emask.active();
  std::vector<std::atomic<nnz_t>> cursor = bin_cursors(sym);
  nnz_t flushes = 0;

#pragma omp parallel reduction(+ : flushes)
  {
    // Thread-private local bins: nbins buffers of `cap` tuples in one
    // contiguous allocation (paper: 1K bins x 512B fits comfortably in L2).
    AlignedBuffer<Tuple> lbin(nbins * static_cast<std::size_t>(cap));
    std::vector<int> lcnt(nbins, 0);

    auto flush = [&](std::size_t bin) {
      const int count = lcnt[bin];
      const nnz_t pos = cursor[bin].fetch_add(count, std::memory_order_relaxed);
      flush_copy(out + pos, lbin.data() + bin * static_cast<std::size_t>(cap),
                 count, cfg.streaming_stores);
      lcnt[bin] = 0;
      ++flushes;
    };

#pragma omp for schedule(guided) nowait
    for (index_t i = 0; i < a.ncols; ++i) {
      // Cooperative cancellation at column granularity (`break` is illegal
      // in an omp for; skipped columns just leave their bins short, and the
      // caller raises the typed error after the join).
      if (stop_requested(cfg.cancel)) continue;
      const auto arows = a.col_rows(i);
      const auto avals = a.col_vals(i);
      const auto bcols = b.row_cols(i);
      const auto bvals = b.row_vals(i);
      if (bcols.empty()) continue;

      for (std::size_t ai = 0; ai < arows.size(); ++ai) {
        const index_t r = arows[ai];
        const value_t av = avals[ai];
        const auto bin = static_cast<std::size_t>(fast_binid<P>(layout, r));
        Tuple* lane = lbin.data() + bin * static_cast<std::size_t>(cap);
        if (masked) {
          const auto mrow = emask.csr->row_cols(r);
          // Empty mask row keeps nothing: the whole B row is skipped
          // without touching the lane (the common case on sparse masks).
          if (mrow.empty() && !emask.complement) continue;
          masked_scan(bcols, mrow, emask.complement, [&](std::size_t bi) {
            if (lcnt[bin] == cap) flush(bin);
            lane[lcnt[bin]++] =
                Tuple{make_key(r, bcols[bi]), S::mul(av, bvals[bi])};
          });
          continue;
        }
        for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
          if (lcnt[bin] == cap) flush(bin);
          lane[lcnt[bin]++] =
              Tuple{make_key(r, bcols[bi]), S::mul(av, bvals[bi])};
        }
      }
    }

    // Drain the partially-filled local bins (Algorithm 2, lines 15-18).
    for (std::size_t bin = 0; bin < nbins; ++bin) {
      if (lcnt[bin] != 0) flush(bin);
    }
    flush_fence();
  }

  finish_expand(cursor, sym, cfg, emask, actual_fill, "pb_expand");
  return flushes;
}

// Narrow-format expand: identical routing and blocking, but local bins are
// SoA — a key lane and a value lane per bin — and a flush scatters the two
// streams separately, so the phase writes 12 bytes per tuple instead of
// 16.  The local-bin capacity is rounded to 16 tuples so a full flush is
// whole cache lines on both streams (one 64 B key line per 16 tuples, two
// value lines), keeping the non-temporal store path of flush_copy.
template <BinPolicy P, typename S>
nnz_t expand_narrow_impl(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                         const SymbolicResult& sym, const PbConfig& cfg,
                         narrow_key_t* out_keys, value_t* out_vals,
                         const MaskSpec& emask, nnz_t* actual_fill) {
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  const int cap = std::max<int>(
      16, cfg.local_bin_bytes /
              static_cast<int>(kBytesPerTupleNarrow) / 16 * 16);
  const int col_bits = sym.col_bits;
  const int mod_shift =
      layout.policy == BinPolicy::kModulo ? layout.modulo_shift() : 0;
  const bool masked = emask.active();
  std::vector<std::atomic<nnz_t>> cursor = bin_cursors(sym);
  nnz_t flushes = 0;

#pragma omp parallel reduction(+ : flushes)
  {
    // All key lanes, then all value lanes (both line-aligned: cap is a
    // multiple of 16, so each lane starts on a 64 B boundary).
    AlignedBuffer<narrow_key_t> lkeys(nbins * static_cast<std::size_t>(cap));
    AlignedBuffer<value_t> lvals(nbins * static_cast<std::size_t>(cap));
    std::vector<int> lcnt(nbins, 0);

    auto flush = [&](std::size_t bin) {
      const int count = lcnt[bin];
      const nnz_t pos = cursor[bin].fetch_add(count, std::memory_order_relaxed);
      flush_copy(out_keys + pos,
                 lkeys.data() + bin * static_cast<std::size_t>(cap), count,
                 cfg.streaming_stores);
      flush_copy(out_vals + pos,
                 lvals.data() + bin * static_cast<std::size_t>(cap), count,
                 cfg.streaming_stores);
      lcnt[bin] = 0;
      ++flushes;
    };

#pragma omp for schedule(guided) nowait
    for (index_t i = 0; i < a.ncols; ++i) {
      if (stop_requested(cfg.cancel)) continue;
      const auto arows = a.col_rows(i);
      const auto avals = a.col_vals(i);
      const auto bcols = b.row_cols(i);
      const auto bvals = b.row_vals(i);
      if (bcols.empty()) continue;

      for (std::size_t ai = 0; ai < arows.size(); ++ai) {
        const index_t r = arows[ai];
        const value_t av = avals[ai];
        const int bin_i = fast_binid<P>(layout, r);
        const auto bin = static_cast<std::size_t>(bin_i);
        // The row bits are constant across B(i,:): build them once.
        const narrow_key_t rowkey =
            static_cast<narrow_key_t>(
                fast_local_row<P>(layout, bin_i, r, mod_shift))
            << col_bits;
        narrow_key_t* klane =
            lkeys.data() + bin * static_cast<std::size_t>(cap);
        value_t* vlane = lvals.data() + bin * static_cast<std::size_t>(cap);
        if (masked) {
          const auto mrow = emask.csr->row_cols(r);
          if (mrow.empty() && !emask.complement) continue;
          masked_scan(bcols, mrow, emask.complement, [&](std::size_t bi) {
            if (lcnt[bin] == cap) flush(bin);
            const int at = lcnt[bin]++;
            klane[at] = rowkey | static_cast<narrow_key_t>(bcols[bi]);
            vlane[at] = S::mul(av, bvals[bi]);
          });
          continue;
        }
        for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
          if (lcnt[bin] == cap) flush(bin);
          const int at = lcnt[bin]++;
          klane[at] = rowkey | static_cast<narrow_key_t>(bcols[bi]);
          vlane[at] = S::mul(av, bvals[bi]);
        }
      }
    }

    for (std::size_t bin = 0; bin < nbins; ++bin) {
      if (lcnt[bin] != 0) flush(bin);
    }
    flush_fence();
  }

  finish_expand(cursor, sym, cfg, emask, actual_fill, "pb_expand_narrow");
  return flushes;
}

// Key-only expand: the stream carries nothing but the 8-byte global key —
// there is no value lane anywhere, so the multiply S::mul disappears and
// the kernel needs no semiring parameter at all.  Legal only when the
// caller established the semiring is value-free (pb/tuple.hpp).  Local
// bin capacity is rounded to 8 keys so a full flush is whole 64 B lines,
// keeping the non-temporal path of flush_copy.
template <BinPolicy P>
nnz_t expand_keyonly_impl(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                          const SymbolicResult& sym, const PbConfig& cfg,
                          wide_key_t* out_keys, const MaskSpec& emask,
                          nnz_t* actual_fill) {
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  const int cap = std::max<int>(
      8, cfg.local_bin_bytes / static_cast<int>(kBytesPerTupleKeyOnly) / 8 * 8);
  const bool masked = emask.active();
  std::vector<std::atomic<nnz_t>> cursor = bin_cursors(sym);
  nnz_t flushes = 0;

#pragma omp parallel reduction(+ : flushes)
  {
    AlignedBuffer<wide_key_t> lkeys(nbins * static_cast<std::size_t>(cap));
    std::vector<int> lcnt(nbins, 0);

    auto flush = [&](std::size_t bin) {
      const int count = lcnt[bin];
      const nnz_t pos = cursor[bin].fetch_add(count, std::memory_order_relaxed);
      flush_copy(out_keys + pos,
                 lkeys.data() + bin * static_cast<std::size_t>(cap), count,
                 cfg.streaming_stores);
      lcnt[bin] = 0;
      ++flushes;
    };

#pragma omp for schedule(guided) nowait
    for (index_t i = 0; i < a.ncols; ++i) {
      if (stop_requested(cfg.cancel)) continue;
      const auto arows = a.col_rows(i);
      const auto bcols = b.row_cols(i);
      if (bcols.empty()) continue;

      for (std::size_t ai = 0; ai < arows.size(); ++ai) {
        const index_t r = arows[ai];
        const auto bin = static_cast<std::size_t>(fast_binid<P>(layout, r));
        // The row half of the key is constant across B(i,:): build it once.
        const wide_key_t rowkey =
            static_cast<wide_key_t>(static_cast<std::uint32_t>(r)) << 32;
        wide_key_t* lane = lkeys.data() + bin * static_cast<std::size_t>(cap);
        if (masked) {
          const auto mrow = emask.csr->row_cols(r);
          if (mrow.empty() && !emask.complement) continue;
          masked_scan(bcols, mrow, emask.complement, [&](std::size_t bi) {
            if (lcnt[bin] == cap) flush(bin);
            lane[lcnt[bin]++] = rowkey | static_cast<std::uint32_t>(bcols[bi]);
          });
          continue;
        }
        for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
          if (lcnt[bin] == cap) flush(bin);
          lane[lcnt[bin]++] = rowkey | static_cast<std::uint32_t>(bcols[bi]);
        }
      }
    }

    for (std::size_t bin = 0; bin < nbins; ++bin) {
      if (lcnt[bin] != 0) flush(bin);
    }
    flush_fence();
  }

  finish_expand(cursor, sym, cfg, emask, actual_fill, "pb_expand_keyonly");
  return flushes;
}

// Narrow-f32 expand: the narrow SoA kernel with a 4-byte value lane — the
// product is computed in double (S::mul semantics unchanged) and narrowed
// on store, so the phase writes 8 bytes per tuple.  A full flush is whole
// lines on both streams (cap is a multiple of 16: one 64 B key line and
// one 64 B value line).
template <BinPolicy P, typename S>
nnz_t expand_narrow_f32_impl(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                             const SymbolicResult& sym, const PbConfig& cfg,
                             narrow_key_t* out_keys, f32_val_t* out_vals,
                             const MaskSpec& emask, nnz_t* actual_fill) {
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  const int cap = std::max<int>(
      16, cfg.local_bin_bytes /
              static_cast<int>(kBytesPerTupleNarrowF32) / 16 * 16);
  const int col_bits = sym.col_bits;
  const int mod_shift =
      layout.policy == BinPolicy::kModulo ? layout.modulo_shift() : 0;
  const bool masked = emask.active();
  std::vector<std::atomic<nnz_t>> cursor = bin_cursors(sym);
  nnz_t flushes = 0;

#pragma omp parallel reduction(+ : flushes)
  {
    AlignedBuffer<narrow_key_t> lkeys(nbins * static_cast<std::size_t>(cap));
    AlignedBuffer<f32_val_t> lvals(nbins * static_cast<std::size_t>(cap));
    std::vector<int> lcnt(nbins, 0);

    auto flush = [&](std::size_t bin) {
      const int count = lcnt[bin];
      const nnz_t pos = cursor[bin].fetch_add(count, std::memory_order_relaxed);
      flush_copy(out_keys + pos,
                 lkeys.data() + bin * static_cast<std::size_t>(cap), count,
                 cfg.streaming_stores);
      flush_copy(out_vals + pos,
                 lvals.data() + bin * static_cast<std::size_t>(cap), count,
                 cfg.streaming_stores);
      lcnt[bin] = 0;
      ++flushes;
    };

#pragma omp for schedule(guided) nowait
    for (index_t i = 0; i < a.ncols; ++i) {
      if (stop_requested(cfg.cancel)) continue;
      const auto arows = a.col_rows(i);
      const auto avals = a.col_vals(i);
      const auto bcols = b.row_cols(i);
      const auto bvals = b.row_vals(i);
      if (bcols.empty()) continue;

      for (std::size_t ai = 0; ai < arows.size(); ++ai) {
        const index_t r = arows[ai];
        const value_t av = avals[ai];
        const int bin_i = fast_binid<P>(layout, r);
        const auto bin = static_cast<std::size_t>(bin_i);
        const narrow_key_t rowkey =
            static_cast<narrow_key_t>(
                fast_local_row<P>(layout, bin_i, r, mod_shift))
            << col_bits;
        narrow_key_t* klane =
            lkeys.data() + bin * static_cast<std::size_t>(cap);
        f32_val_t* vlane = lvals.data() + bin * static_cast<std::size_t>(cap);
        if (masked) {
          const auto mrow = emask.csr->row_cols(r);
          if (mrow.empty() && !emask.complement) continue;
          masked_scan(bcols, mrow, emask.complement, [&](std::size_t bi) {
            if (lcnt[bin] == cap) flush(bin);
            const int at = lcnt[bin]++;
            klane[at] = rowkey | static_cast<narrow_key_t>(bcols[bi]);
            vlane[at] = static_cast<f32_val_t>(S::mul(av, bvals[bi]));
          });
          continue;
        }
        for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
          if (lcnt[bin] == cap) flush(bin);
          const int at = lcnt[bin]++;
          klane[at] = rowkey | static_cast<narrow_key_t>(bcols[bi]);
          vlane[at] = static_cast<f32_val_t>(S::mul(av, bvals[bi]));
        }
      }
    }

    for (std::size_t bin = 0; bin < nbins; ++bin) {
      if (lcnt[bin] != 0) flush(bin);
    }
    flush_fence();
  }

  finish_expand(cursor, sym, cfg, emask, actual_fill, "pb_expand_narrow_f32");
  return flushes;
}

}  // namespace detail

template <typename S>
nnz_t pb_expand_narrow_f32(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                           const SymbolicResult& sym, const PbConfig& cfg,
                           narrow_key_t* out_keys, f32_val_t* out_vals,
                           const MaskSpec& emask, nnz_t* actual_fill) {
  switch (sym.layout.policy) {
    case BinPolicy::kRange:
      return detail::expand_narrow_f32_impl<BinPolicy::kRange, S>(
          a, b, sym, cfg, out_keys, out_vals, emask, actual_fill);
    case BinPolicy::kModulo:
      return detail::expand_narrow_f32_impl<BinPolicy::kModulo, S>(
          a, b, sym, cfg, out_keys, out_vals, emask, actual_fill);
    case BinPolicy::kAdaptive:
      return detail::expand_narrow_f32_impl<BinPolicy::kAdaptive, S>(
          a, b, sym, cfg, out_keys, out_vals, emask, actual_fill);
  }
  return 0;
}

template <typename S>
nnz_t pb_expand(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                const SymbolicResult& sym, const PbConfig& cfg, Tuple* out,
                const MaskSpec& emask, nnz_t* actual_fill) {
  switch (sym.layout.policy) {
    case BinPolicy::kRange:
      return detail::expand_impl<BinPolicy::kRange, S>(a, b, sym, cfg, out,
                                                       emask, actual_fill);
    case BinPolicy::kModulo:
      return detail::expand_impl<BinPolicy::kModulo, S>(a, b, sym, cfg, out,
                                                        emask, actual_fill);
    case BinPolicy::kAdaptive:
      return detail::expand_impl<BinPolicy::kAdaptive, S>(a, b, sym, cfg, out,
                                                          emask, actual_fill);
  }
  return 0;
}

template <typename S>
nnz_t pb_expand_narrow(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                       const SymbolicResult& sym, const PbConfig& cfg,
                       narrow_key_t* out_keys, value_t* out_vals,
                       const MaskSpec& emask, nnz_t* actual_fill) {
  switch (sym.layout.policy) {
    case BinPolicy::kRange:
      return detail::expand_narrow_impl<BinPolicy::kRange, S>(
          a, b, sym, cfg, out_keys, out_vals, emask, actual_fill);
    case BinPolicy::kModulo:
      return detail::expand_narrow_impl<BinPolicy::kModulo, S>(
          a, b, sym, cfg, out_keys, out_vals, emask, actual_fill);
    case BinPolicy::kAdaptive:
      return detail::expand_narrow_impl<BinPolicy::kAdaptive, S>(
          a, b, sym, cfg, out_keys, out_vals, emask, actual_fill);
  }
  return 0;
}

}  // namespace pbs::pb
