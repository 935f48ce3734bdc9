#include "pb/output.hpp"

#include "common/cancel.hpp"
#include "common/prefix_sum.hpp"

namespace pbs::pb {

namespace {

// Inverse of the expand path's fast_local_row: rebuild the global rowid
// from (bin, local) under each policy.  The modulo shift is hoisted by
// callers so the per-tuple cost is a plain shift/or (or an indexed add).
index_t narrow_global_row(const BinLayout& layout, int mod_shift, int bin,
                          index_t local) {
  switch (layout.policy) {
    case BinPolicy::kRange:
      return (static_cast<index_t>(bin) << layout.shift) | local;
    case BinPolicy::kModulo:
      return (local << mod_shift) | static_cast<index_t>(bin);
    case BinPolicy::kAdaptive:
      return layout.bounds[static_cast<std::size_t>(bin)] + local;
  }
  return index_t{0};
}

// Per-bin passes of the builders below.  No row spans two bins, so bins
// count into the shared rowptr (slot row + 1) and scatter into C's arrays
// concurrently without atomics.
void count_bin(const Tuple* bin_tuples, nnz_t merged, nnz_t* rowptr) {
  for (nnz_t i = 0; i < merged; ++i) {
    ++rowptr[static_cast<std::size_t>(key_row(bin_tuples[i].key)) + 1];
  }
}

void scatter_bin(const Tuple* bin_tuples, nnz_t merged,
                 const nnz_t* rowptr, index_t* colids, value_t* vals) {
  // Within a bin tuples are (row, col)-sorted, so every row appears as one
  // contiguous run; its j-th element lands at rowptr[row] + j.
  nnz_t i = 0;
  while (i < merged) {
    const index_t row = key_row(bin_tuples[i].key);
    nnz_t dst = rowptr[row];
    while (i < merged && key_row(bin_tuples[i].key) == row) {
      colids[static_cast<std::size_t>(dst)] = key_col(bin_tuples[i].key);
      vals[static_cast<std::size_t>(dst)] = bin_tuples[i].val;
      ++dst;
      ++i;
    }
  }
}

void count_bin_narrow(const narrow_key_t* bin_keys, nnz_t merged, int bin,
                      const BinLayout& layout, int col_bits,
                      nnz_t* rowptr) {
  const int mod_shift =
      layout.policy == BinPolicy::kModulo ? layout.modulo_shift() : 0;
  for (nnz_t i = 0; i < merged; ++i) {
    const index_t row = narrow_global_row(
        layout, mod_shift, bin, narrow_key_local_row(bin_keys[i], col_bits));
    ++rowptr[static_cast<std::size_t>(row) + 1];
  }
}

void count_bin_keyonly(const wide_key_t* bin_keys, nnz_t merged,
                       nnz_t* rowptr) {
  for (nnz_t i = 0; i < merged; ++i) {
    ++rowptr[static_cast<std::size_t>(key_row(bin_keys[i])) + 1];
  }
}

void scatter_bin_keyonly(const wide_key_t* bin_keys, nnz_t merged,
                         const nnz_t* rowptr, index_t* colids,
                         value_t* vals, value_t present) {
  // Same contiguous-row-run walk as the wide scatter; the value store is a
  // constant, the format's whole point.
  nnz_t i = 0;
  while (i < merged) {
    const index_t row = key_row(bin_keys[i]);
    nnz_t dst = rowptr[row];
    while (i < merged && key_row(bin_keys[i]) == row) {
      colids[static_cast<std::size_t>(dst)] = key_col(bin_keys[i]);
      vals[static_cast<std::size_t>(dst)] = present;
      ++dst;
      ++i;
    }
  }
}

// Shared body of the narrow scatters: the value lane differs only in its
// element width (f64, or f32 widened/copied), so one template serves the
// narrow, narrow-f32 and native-f32 paths.
template <typename VIn, typename VOut>
void scatter_bin_narrow_any(const narrow_key_t* bin_keys, const VIn* bin_vals,
                            nnz_t merged, int bin, const BinLayout& layout,
                            int col_bits, const nnz_t* rowptr, index_t* colids,
                            VOut* vals) {
  const int mod_shift =
      layout.policy == BinPolicy::kModulo ? layout.modulo_shift() : 0;
  const narrow_key_t col_mask = (narrow_key_t{1} << col_bits) - 1u;
  // Ascending narrow keys are ascending (row, col) — local_row is monotone
  // in the rowid for every policy — so rows appear as contiguous runs
  // exactly as in the wide path.
  nnz_t i = 0;
  while (i < merged) {
    const index_t local = narrow_key_local_row(bin_keys[i], col_bits);
    const index_t row = narrow_global_row(layout, mod_shift, bin, local);
    nnz_t dst = rowptr[row];
    while (i < merged && narrow_key_local_row(bin_keys[i], col_bits) == local) {
      colids[static_cast<std::size_t>(dst)] =
          static_cast<index_t>(bin_keys[i] & col_mask);
      vals[static_cast<std::size_t>(dst)] = static_cast<VOut>(bin_vals[i]);
      ++dst;
      ++i;
    }
  }
}

// Shared two-pass skeleton of the narrow CSR builders, parameterized the
// same way (the count pass is identical — it reads only the keys).
template <typename VIn, typename VOut>
void build_narrow_any(const narrow_key_t* keys, const VIn* vals_in,
                      std::span<const nnz_t> offsets,
                      std::span<const nnz_t> merged, const BinLayout& layout,
                      int col_bits, index_t nrows, nnz_t* rowptr,
                      std::vector<index_t>& colids, std::vector<VOut>& vals,
                      const CancelToken* cancel) {
  const auto nbins = static_cast<int>(merged.size());

  // Pass 1: per-row counts from the key array alone — the narrow format's
  // cheapest pass: 4 bytes per surviving tuple.  Same no-atomics argument
  // as the wide path: bins never share a row.
#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    count_bin_narrow(keys + offsets[static_cast<std::size_t>(bin)],
                     merged[static_cast<std::size_t>(bin)], bin, layout,
                     col_bits, rowptr);
  }
  throw_if_stopped(cancel);

  const nnz_t total =
      counts_to_rowptr(rowptr, static_cast<std::size_t>(nrows));
  colids.resize(static_cast<std::size_t>(total));
  vals.resize(static_cast<std::size_t>(total));

#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    const nnz_t off = offsets[static_cast<std::size_t>(bin)];
    scatter_bin_narrow_any(keys + off, vals_in + off,
                           merged[static_cast<std::size_t>(bin)], bin, layout,
                           col_bits, rowptr, colids.data(), vals.data());
  }
  throw_if_stopped(cancel);
}

}  // namespace

mtx::CsrMatrix pb_build_csr(const Tuple* tuples,
                            std::span<const nnz_t> offsets,
                            std::span<const nnz_t> merged, index_t nrows,
                            index_t ncols, const CancelToken* cancel) {
  const auto nbins = static_cast<int>(merged.size());
  mtx::CsrMatrix out(nrows, ncols);

  // Pass 1: per-row counts.  Distinct bins never contain the same row, so
  // bins can histogram into the shared rowptr array without atomics.
#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    count_bin(tuples + offsets[static_cast<std::size_t>(bin)],
              merged[static_cast<std::size_t>(bin)], out.rowptr.data());
  }
  throw_if_stopped(cancel);

  const nnz_t total =
      counts_to_rowptr(out.rowptr.data(), static_cast<std::size_t>(nrows));
  out.colids.resize(static_cast<std::size_t>(total));
  out.vals.resize(static_cast<std::size_t>(total));

  // Pass 2: scatter.  Rows being bin-exclusive makes the writes race-free.
#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    scatter_bin(tuples + offsets[static_cast<std::size_t>(bin)],
                merged[static_cast<std::size_t>(bin)], out.rowptr.data(),
                out.colids.data(), out.vals.data());
  }
  throw_if_stopped(cancel);

  return out;
}

mtx::CsrMatrix pb_build_csr_narrow(const narrow_key_t* keys,
                                   const value_t* vals,
                                   std::span<const nnz_t> offsets,
                                   std::span<const nnz_t> merged,
                                   const BinLayout& layout, int col_bits,
                                   index_t nrows, index_t ncols,
                                   const CancelToken* cancel) {
  mtx::CsrMatrix out(nrows, ncols);
  build_narrow_any(keys, vals, offsets, merged, layout, col_bits, nrows,
                   out.rowptr.data(), out.colids, out.vals, cancel);
  return out;
}

mtx::CsrMatrix pb_build_csr_narrow_f32(const narrow_key_t* keys,
                                       const f32_val_t* vals,
                                       std::span<const nnz_t> offsets,
                                       std::span<const nnz_t> merged,
                                       const BinLayout& layout, int col_bits,
                                       index_t nrows, index_t ncols,
                                       const CancelToken* cancel) {
  mtx::CsrMatrix out(nrows, ncols);
  build_narrow_any(keys, vals, offsets, merged, layout, col_bits, nrows,
                   out.rowptr.data(), out.colids, out.vals, cancel);
  return out;
}

CsrF32 pb_build_csr_narrow_f32_native(const narrow_key_t* keys,
                                      const f32_val_t* vals,
                                      std::span<const nnz_t> offsets,
                                      std::span<const nnz_t> merged,
                                      const BinLayout& layout, int col_bits,
                                      index_t nrows, index_t ncols) {
  CsrF32 out;
  out.nrows = nrows;
  out.ncols = ncols;
  out.rowptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  build_narrow_any(keys, vals, offsets, merged, layout, col_bits, nrows,
                   out.rowptr.data(), out.colids, out.vals, nullptr);
  return out;
}

mtx::CsrMatrix pb_build_csr_keyonly(const wide_key_t* keys,
                                    std::span<const nnz_t> offsets,
                                    std::span<const nnz_t> merged,
                                    index_t nrows, index_t ncols,
                                    value_t present,
                                    const CancelToken* cancel) {
  const auto nbins = static_cast<int>(merged.size());
  mtx::CsrMatrix out(nrows, ncols);

  // Same two barrier-separated sweeps as the wide builder; the count pass
  // reads 8 B per surviving tuple and the scatter synthesizes values.
#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    count_bin_keyonly(keys + offsets[static_cast<std::size_t>(bin)],
                      merged[static_cast<std::size_t>(bin)],
                      out.rowptr.data());
  }
  throw_if_stopped(cancel);

  const nnz_t total =
      counts_to_rowptr(out.rowptr.data(), static_cast<std::size_t>(nrows));
  out.colids.resize(static_cast<std::size_t>(total));
  out.vals.resize(static_cast<std::size_t>(total));

#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    scatter_bin_keyonly(keys + offsets[static_cast<std::size_t>(bin)],
                        merged[static_cast<std::size_t>(bin)],
                        out.rowptr.data(), out.colids.data(),
                        out.vals.data(), present);
  }
  throw_if_stopped(cancel);

  return out;
}

}  // namespace pbs::pb
