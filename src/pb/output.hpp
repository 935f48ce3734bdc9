// PB-SpGEMM output conversion (paper Algorithm 2, line 22: ConvertCSR).
//
// After compression each bin holds its surviving tuples sorted by
// (row, col), and no row spans two bins.  Conversion is therefore
// race-free per bin: count rows, prefix-sum into rowptr, then stream each
// bin's tuples into its rows' final positions.  C's colids/vals are
// DefaultInitVector, so sizing them writes nothing: each scatter thread
// first-touches the pages of the bins it writes, and the scatter is the
// only pass over C's entries (a std::vector resize would zero-fill and
// fault all of C on one thread first).  The keys decode to global
// (row, col) through the stream policy's codec (pb/tuple.hpp) — bin-
// relative keys through the bin geometry — and values widen to the output
// type; the key-only stream synthesizes the present-value.
//
// The plain conversion copies values without interpreting them, so unlike
// expand and sort/compress it needs no semiring template.
//
// Fused accumulate — C = C_old ⊞ (A ⊗ B) — runs the union merge inside the
// same two sweeps instead of as a post-pass semiring_ewise_add over the
// built product: each bin's surviving tuples are already (row, col)-sorted,
// so one forward sweep per bin merges the bin's tuple stream against
// C_old's rows (BinLayout::for_each_row visits them in exactly the
// stream's row order) while both stream through cache once, and the
// product CSR is never materialized.  Both-present entries combine as
// S::add(c_old_value, product_value) — the argument order
// semiring_ewise_add uses — and single-side entries are copied, so the
// fused result is bitwise equal to semiring_ewise_add(c_old, product).
//
// Cancellation is polled per bin: cancelled bins are skipped (their
// partial output is about to be discarded) and the token's typed error is
// raised once the parallel sweeps join — throwing from inside an `omp for`
// is illegal.
#pragma once

#include <span>
#include <vector>

#include "common/cancel.hpp"
#include "common/prefix_sum.hpp"
#include "matrix/csr.hpp"
#include "pb/binning.hpp"
#include "pb/pb_config.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

/// A CSR matrix with single-precision values — the native output of a
/// narrow-f32 plan when the caller asks for it (the default conversion
/// widens back to the canonical f64 CsrMatrix).  Pattern arrays match
/// mtx::CsrMatrix exactly; only the value width differs.
struct CsrF32 {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<nnz_t> rowptr;
  DefaultInitVector<index_t> colids;
  DefaultInitVector<f32_val_t> vals;

  [[nodiscard]] nnz_t nnz() const {
    return rowptr.empty() ? 0 : rowptr.back();
  }
};

namespace detail {

/// The two barrier-separated sweeps of every conversion: `count_bin(bin)`
/// adds each of the bin's rows' entry counts into out.rowptr[row + 1] —
/// no row spans two bins, so bins share rowptr without atomics — then a
/// prefix sum, then `scatter_bin(bin)` writes the bin's entries into
/// their rows' final slots.  out.rowptr must hold nrows + 1 zeros.
template <typename Out, typename CountBin, typename ScatterBin>
void build_two_pass(int nbins, index_t nrows, Out& out, CountBin count_bin,
                    ScatterBin scatter_bin, const CancelToken* cancel) {
#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    count_bin(bin);
  }
  throw_if_stopped(cancel);

  const nnz_t total =
      counts_to_rowptr(out.rowptr.data(), static_cast<std::size_t>(nrows));
  out.colids.resize(static_cast<std::size_t>(total));
  out.vals.resize(static_cast<std::size_t>(total));

#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    scatter_bin(bin);
  }
  throw_if_stopped(cancel);
}

/// Plain conversion of compressed bins into `out` (CsrMatrix, or CsrF32
/// for the native f32 output).
template <typename St, typename Out>
void build_csr_into(St stream, std::span<const nnz_t> offsets,
                    std::span<const nnz_t> merged, const KeyGeometry& geo,
                    index_t nrows, Out& out, const CancelToken* cancel) {
  using Codec = typename St::Codec;
  using VOut = typename decltype(out.vals)::value_type;
  // Each sweep copies the geometry into a local: stores into colids
  // (index_t) could otherwise alias its int fields and force reloads.
  build_two_pass(
      static_cast<int>(merged.size()), nrows, out,
      [&](int bin) {
        const St t = stream.at(offsets[static_cast<std::size_t>(bin)]);
        const nnz_t n = merged[static_cast<std::size_t>(bin)];
        const KeyGeometry g = geo;
        nnz_t* rowptr = out.rowptr.data();
        for (nnz_t i = 0; i < n; ++i) {
          const index_t row = decode_row<Codec>(t.key(i), bin, g);
          ++rowptr[static_cast<std::size_t>(row) + 1];
        }
      },
      [&](int bin) {
        const St t = stream.at(offsets[static_cast<std::size_t>(bin)]);
        const nnz_t n = merged[static_cast<std::size_t>(bin)];
        // Within a bin tuples are (row, col)-sorted — bin-relative rows
        // are monotone in the rowid for every policy — so every row is
        // one contiguous run of equal row bits; its j-th element lands at
        // rowptr[row] + j.
        const KeyGeometry g = geo;
        const nnz_t* rowptr = out.rowptr.data();
        index_t* colids = out.colids.data();
        VOut* vals = out.vals.data();
        nnz_t i = 0;
        while (i < n) {
          const index_t bits = Codec::row_bits(t.key(i), g);
          const index_t row = Codec::global_row(bits, bin, g);
          auto dst =
              static_cast<std::size_t>(rowptr[static_cast<std::size_t>(row)]);
          while (i < n && Codec::row_bits(t.key(i), g) == bits) {
            colids[dst] = Codec::col(t.key(i), g);
            vals[dst] = static_cast<VOut>(t.val(i));
            ++dst;
            ++i;
          }
        }
      },
      cancel);
}

}  // namespace detail

/// Builds the canonical CSR result from compressed bins.  `offsets[b]` is
/// bin b's region origin in `stream`; `merged[b]` the number of surviving
/// tuples at that origin.  Bin-relative keys decode through (`layout`,
/// `col_bits`), which must be the ones the stream was expanded with
/// (SymbolicResult::layout / col_bits); global keys need neither.
template <TupleStreamView St>
mtx::CsrMatrix pb_build_csr(St stream, std::span<const nnz_t> offsets,
                            std::span<const nnz_t> merged,
                            const BinLayout* layout, int col_bits,
                            index_t nrows, index_t ncols,
                            const CancelToken* cancel = nullptr) {
  mtx::CsrMatrix out(nrows, ncols);
  detail::build_csr_into(stream, offsets, merged, KeyGeometry(layout, col_bits),
                         nrows, out, cancel);
  return out;
}

/// Fused-accumulate conversion: C = C_old ⊞ the compressed bins, over
/// semiring S (see the file comment for the bit-identity contract).
/// `layout` / `col_bits` must be the stream's own.
template <typename S, TupleStreamView St>
mtx::CsrMatrix pb_accumulate_csr(St stream, std::span<const nnz_t> offsets,
                                 std::span<const nnz_t> merged,
                                 const mtx::CsrMatrix& c_old,
                                 const BinLayout& layout, int col_bits,
                                 index_t nrows, index_t ncols,
                                 const CancelToken* cancel = nullptr) {
  using Codec = typename St::Codec;
  const KeyGeometry geo(&layout, col_bits);
  mtx::CsrMatrix c(nrows, ncols);
  detail::build_two_pass(
      layout.nbins, nrows, c,
      // Union-pattern count.  The tuple walk and for_each_row agree on row
      // order, so a single forward cursor serves the whole bin.
      [&](int bin) {
        const St t = stream.at(offsets[static_cast<std::size_t>(bin)]);
        const nnz_t n = merged[static_cast<std::size_t>(bin)];
        const KeyGeometry g = geo;
        nnz_t i = 0;
        layout.for_each_row(bin, nrows, [&](index_t r) {
          const auto ccols = c_old.row_cols(r);
          std::size_t ci = 0;
          nnz_t cnt = 0;
          while (i < n && decode_row<Codec>(t.key(i), bin, g) == r) {
            const index_t pc = Codec::col(t.key(i), g);
            while (ci < ccols.size() && ccols[ci] < pc) {
              ++ci;
              ++cnt;
            }
            if (ci < ccols.size() && ccols[ci] == pc) ++ci;
            ++cnt;
            ++i;
          }
          cnt += static_cast<nnz_t>(ccols.size() - ci);
          if (cnt != 0) c.rowptr[static_cast<std::size_t>(r) + 1] += cnt;
        });
      },
      // Union merge into the rows' final positions.
      [&](int bin) {
        const St t = stream.at(offsets[static_cast<std::size_t>(bin)]);
        const nnz_t n = merged[static_cast<std::size_t>(bin)];
        const KeyGeometry g = geo;
        nnz_t i = 0;
        layout.for_each_row(bin, nrows, [&](index_t r) {
          const auto ccols = c_old.row_cols(r);
          const auto cvals = c_old.row_vals(r);
          std::size_t ci = 0;
          auto pos = static_cast<std::size_t>(
              c.rowptr[static_cast<std::size_t>(r)]);
          while (i < n && decode_row<Codec>(t.key(i), bin, g) == r) {
            const index_t pc = Codec::col(t.key(i), g);
            while (ci < ccols.size() && ccols[ci] < pc) {
              c.colids[pos] = ccols[ci];
              c.vals[pos] = cvals[ci];
              ++pos;
              ++ci;
            }
            c.colids[pos] = pc;
            if (ci < ccols.size() && ccols[ci] == pc) {
              c.vals[pos] = S::add(cvals[ci], t.val(i));
              ++ci;
            } else {
              c.vals[pos] = t.val(i);
            }
            ++pos;
            ++i;
          }
          for (; ci < ccols.size(); ++ci) {
            c.colids[pos] = ccols[ci];
            c.vals[pos] = cvals[ci];
            ++pos;
          }
        });
      },
      cancel);
  return c;
}

// Named wide and narrow forms of pb_build_csr above.  perfbench/'s
// run_phases calls them with these exact signatures, and that directory is
// frozen by BENCHMARK.json, so they stay as one-line forwarders.

/// Wide-format conversion from AoS tuples.
mtx::CsrMatrix pb_build_csr(const Tuple* tuples,
                            std::span<const nnz_t> offsets,
                            std::span<const nnz_t> merged, index_t nrows,
                            index_t ncols,
                            const CancelToken* cancel = nullptr);

/// Narrow-format conversion from the SoA key + value arrays.
mtx::CsrMatrix pb_build_csr_narrow(const narrow_key_t* keys,
                                   const value_t* vals,
                                   std::span<const nnz_t> offsets,
                                   std::span<const nnz_t> merged,
                                   const BinLayout& layout, int col_bits,
                                   index_t nrows, index_t ncols,
                                   const CancelToken* cancel = nullptr);

/// Narrow-f32 conversion to a *native* f32 CSR — no widening pass, for
/// callers whose whole workload is single precision.
CsrF32 pb_build_csr_narrow_f32_native(const narrow_key_t* keys,
                                      const f32_val_t* vals,
                                      std::span<const nnz_t> offsets,
                                      std::span<const nnz_t> merged,
                                      const BinLayout& layout, int col_bits,
                                      index_t nrows, index_t ncols);

}  // namespace pbs::pb
