// PB-SpGEMM expand phase (paper Algorithm 2, lines 5-18).
//
// Performs the k outer products A(:,i) · B(i,:) and propagates each
// multiplied tuple toward its row's global bin *through a thread-private
// local bin* (paper Fig. 5): tuples accumulate in a small cache-resident
// buffer and are flushed to the global bin in one cache-line-multiple
// memcpy when it fills, so global-memory writes always use full cache
// lines.  Global bins are contiguous regions of one flop-sized allocation;
// a flush claims its destination with a relaxed atomic fetch-add.
//
// The phase is templated on the semiring and on the tuple-stream policy
// (pb/tuple.hpp).  The only algebraic operation it performs is the scalar
// multiply A(r,i) ⊗ B(i,c), which becomes S::mul — and the key-only
// stream, which has no value lane, skips even that.  Routing, blocking and
// the non-temporal flush stores are semiring-independent, so every
// instantiation streams memory identically.
#pragma once

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cancel.hpp"
#include "common/parallel.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "pb/symbolic.hpp"
#include "pb/tuple.hpp"
#include "spgemm/semiring_ops.hpp"

namespace pbs::pb {

/// Whether this run's expand phase should apply the fused output mask in
/// its scatter loop (ExpandMaskMode): forced by kOn, and under kAuto
/// engaged when the kept-side density — nnz(mask)/cells, complement-
/// flipped — is at most 5%.  A per-run decision: the mask is run state,
/// never plan state, so pb_execute calls this with the mask actually
/// passed to it, and the executor's selection model calls it to credit
/// only a skip that will run.
inline bool engage_expand_mask(const MaskSpec& mask, const PbConfig& cfg,
                               index_t nrows, index_t ncols) {
  constexpr double kMaxKeptDensity = 0.05;
  if (!mask.active() || cfg.expand_mask == ExpandMaskMode::kOff) return false;
  if (cfg.expand_mask == ExpandMaskMode::kOn) return true;
  const double cells = static_cast<double>(nrows) * static_cast<double>(ncols);
  if (cells <= 0) return true;
  const double density = static_cast<double>(mask.csr->nnz()) / cells;
  const double kept = mask.complement ? 1.0 - density : density;
  return kept <= kMaxKeptDensity;
}

namespace detail {

inline void flush_fence() {
#if defined(__SSE2__)
  _mm_sfence();  // make non-temporal stores visible before the sort phase
#endif
}

// The per-(output row, B row) mask merge of the expand kernel: the B
// row's columns and the mask row's columns are both ascending, so one
// forward scan of the mask row per pair decides every candidate tuple.
// Keep when membership != complement; kept candidates are passed to
// `emit(bi)`.
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

}  // namespace detail

/// Fills `out[0 .. sym.bin_offsets.back())` with the expanded tuples of
/// A ⊗ B over semiring S, bin by bin according to sym.bin_offsets, in the
/// stream format St.  Requires sym.format == St::kFormat (bin regions are
/// padded for the format's line size) and a stream with room for
/// sym.bin_offsets.back() tuples.  Returns the number of local-bin flushes
/// (telemetry for the Fig. 6a bin-width study).
///
/// With an active `emask` the scatter loop applies the fused output mask
/// while generating: tuples whose (row, col) fails the mask polarity are
/// never multiplied, buffered or flushed (a flop reduction — the
/// ExpandMaskMode path).  Bins then hold fewer tuples than the symbolic
/// fill marks; `actual_fill` (when non-null, length layout.nbins)
/// receives each bin's generated tuple count, which downstream
/// sort/compress must use in place of sym.bin_fill.
///
/// Each thread routes its columns' tuples through thread-private local
/// bins and flushes a full local bin to the global bin's shared write
/// cursor.  Local bins are a stream of the same policy (one lane per
/// stream lane), with a capacity rounded to the policy's flush quantum so
/// a full flush is whole cache lines on every lane, keeping the
/// non-temporal store path of flush_copy.
template <typename S, TupleStreamView St>
nnz_t pb_expand(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                const SymbolicResult& sym, const PbConfig& cfg, St out,
                const MaskSpec& emask = {}, nnz_t* actual_fill = nullptr) {
  using key_type = typename St::key_type;
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  constexpr int q = St::kFlushQuantum;
  const int cap = std::max<int>(
      q, cfg.local_bin_bytes / static_cast<int>(St::kBytes) / q * q);
  const int col_bits = sym.col_bits;
  const bool masked = emask.active();
  // One write cursor per global bin, starting at the bin's region origin.
  std::vector<std::atomic<nnz_t>> cursor(nbins);
  for (std::size_t bin = 0; bin < nbins; ++bin)
    cursor[bin].store(sym.bin_offsets[bin], std::memory_order_relaxed);
  std::atomic<nnz_t> flushes{0};

  parallel_team(
      [&](Team& team) {
        // Thread-private local bins: nbins lanes of `cap` tuples in one
        // contiguous allocation (paper: 1K bins x 512B fits comfortably in
        // L2).
        AlignedBuffer<std::byte> lbin_buf;
        St lbin;
        std::vector<int> lcnt;
        team.run([&] {
          const std::size_t lbin_len = nbins * static_cast<std::size_t>(cap);
          lbin_buf.allocate(St::bytes(lbin_len));
          lbin = St::carve(lbin_buf.data(), lbin_len);
          lcnt.assign(nbins, 0);
        });
        nnz_t my_flushes = 0;

        auto flush = [&](std::size_t bin) {
          const int count = lcnt[bin];
          const nnz_t pos =
              cursor[bin].fetch_add(count, std::memory_order_relaxed);
          lbin.at(static_cast<nnz_t>(bin) * cap).copy_to(out.at(pos), count);
          lcnt[bin] = 0;
          ++my_flushes;
        };

        // Columns are polled for cfg.cancel by the loop; a skipped column
        // leaves its bins short, and the typed error follows the join.
        team.for_each_nowait(Guided{}, a.ncols, [&](index_t i) {
          const auto arows = a.col_rows(i);
          const auto avals = a.col_vals(i);
          const auto bcols = b.row_cols(i);
          const auto bvals = b.row_vals(i);
          if (bcols.empty()) return;

          for (std::size_t ai = 0; ai < arows.size(); ++ai) {
            const index_t r = arows[ai];
            const value_t av = St::kHasValues ? avals[ai] : value_t{};
            const auto bin = static_cast<std::size_t>(layout.binid(r));
            // The row bits are constant across B(i,:): build them once.
            const key_type rowkey = St::Codec::row_key(layout, r, col_bits);
            const St lane = lbin.at(static_cast<nnz_t>(bin) * cap);
            auto emit = [&](std::size_t bi) {
              if (lcnt[bin] == cap) flush(bin);
              lane.store(static_cast<std::size_t>(lcnt[bin]++),
                         rowkey | static_cast<std::uint32_t>(bcols[bi]),
                         St::kHasValues ? S::mul(av, bvals[bi]) : value_t{});
            };
            if (masked) {
              const auto mrow = emask.csr->row_cols(r);
              // Empty mask row keeps nothing: the whole B row is skipped
              // without touching the lane (the common case on sparse
              // masks).
              if (mrow.empty() && !emask.complement) continue;
              detail::masked_scan(bcols, mrow, emask.complement, emit);
              continue;
            }
            for (std::size_t bi = 0; bi < bcols.size(); ++bi) emit(bi);
          }
        });

        // Drain the partially-filled local bins (Algorithm 2, lines 15-18)
        // without waiting for the team.  lcnt is empty when this thread's
        // local bins could not be allocated.
        for (std::size_t bin = 0; bin < lcnt.size(); ++bin) {
          if (lcnt[bin] != 0) flush(bin);
        }
        detail::flush_fence();
        flushes.fetch_add(my_flushes, std::memory_order_relaxed);
      },
      cfg.cancel);

  // Each bin's cursor read back is its generated fill; under cfg.validate
  // it must meet the symbolic fill mark — exactly when unmasked, at most
  // when the masked scatter skipped tuples.  (A cancelled run, whose bins
  // are short, has already thrown at the join.)
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    const nnz_t end = cursor[bin].load(std::memory_order_relaxed);
    if (actual_fill != nullptr) actual_fill[bin] = end - sym.bin_offsets[bin];
    const nnz_t mark = sym.bin_offsets[bin] + sym.bin_fill[bin];
    if (cfg.validate && (masked ? end > mark : end != mark)) {
      throw std::logic_error("pb_expand: bin " + std::to_string(bin) +
                             " cursor does not meet its fill mark");
    }
  }
  return flushes.load(std::memory_order_relaxed);
}

// Named wide and narrow forms of the phase call above.  perfbench/'s
// run_phases calls them with these exact signatures, and that directory is
// frozen by BENCHMARK.json, so they stay as one-line forwarders.

/// Wide-format expand into AoS tuples (sym.format == TupleFormat::kWide).
template <typename S>
nnz_t pb_expand(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                const SymbolicResult& sym, const PbConfig& cfg, Tuple* out,
                const MaskSpec& emask = {}, nnz_t* actual_fill = nullptr) {
  return pb_expand<S>(a, b, sym, cfg, WideStream{out}, emask, actual_fill);
}

/// Narrow-format expand into the SoA key + value arrays
/// (sym.format == TupleFormat::kNarrow).
template <typename S>
nnz_t pb_expand_narrow(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                       const SymbolicResult& sym, const PbConfig& cfg,
                       narrow_key_t* out_keys, value_t* out_vals,
                       const MaskSpec& emask = {},
                       nnz_t* actual_fill = nullptr) {
  return pb_expand<S>(a, b, sym, cfg, NarrowStream{out_keys, out_vals}, emask,
                      actual_fill);
}

}  // namespace pbs::pb
