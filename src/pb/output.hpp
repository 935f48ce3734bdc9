// PB-SpGEMM output conversion (paper Algorithm 2, line 22: ConvertCSR).
//
// After compression each bin holds its surviving tuples sorted by
// (row, col), and no row spans two bins.  Conversion is therefore
// race-free per bin: count rows, prefix-sum into rowptr, then stream each
// bin's tuples into its rows' final positions.
//
// This phase copies values without interpreting them, so unlike expand and
// sort/compress it needs no semiring template: one conversion serves every
// pb_spgemm<S> instantiation.
#pragma once

#include <span>
#include <vector>

#include "common/cancel.hpp"
#include "matrix/csr.hpp"
#include "pb/binning.hpp"
#include "pb/pb_config.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

// The batch builders below accept an optional CancelToken, polled at bin
// granularity: cancelled bins are skipped (their partial output is about
// to be discarded) and the token's typed error is raised once the
// parallel sweeps join — throwing from inside an `omp for` is illegal.

/// A CSR matrix with single-precision values — the native output of a
/// narrow-f32 plan when the caller asks for it (the default conversion
/// widens back to the canonical f64 CsrMatrix).  Pattern arrays match
/// mtx::CsrMatrix exactly; only the value width differs.
struct CsrF32 {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<nnz_t> rowptr;
  std::vector<index_t> colids;
  std::vector<f32_val_t> vals;

  [[nodiscard]] nnz_t nnz() const {
    return rowptr.empty() ? 0 : rowptr.back();
  }
};

/// Builds the canonical CSR result from compressed bins.
/// `offsets[b]` is bin b's region origin in `tuples`; `merged[b]` the
/// number of surviving tuples at that origin.
mtx::CsrMatrix pb_build_csr(const Tuple* tuples,
                            std::span<const nnz_t> offsets,
                            std::span<const nnz_t> merged, index_t nrows,
                            index_t ncols,
                            const CancelToken* cancel = nullptr);

/// Narrow-format conversion: reconstructs the global (row, col) of each
/// surviving tuple from the bin geometry while streaming — the row-count
/// pass reads only the 4 B key array, and values are copied straight from
/// the SoA value array.  `layout`/`col_bits` must be the ones the stream
/// was expanded with (SymbolicResult::layout / col_bits).
mtx::CsrMatrix pb_build_csr_narrow(const narrow_key_t* keys,
                                   const value_t* vals,
                                   std::span<const nnz_t> offsets,
                                   std::span<const nnz_t> merged,
                                   const BinLayout& layout, int col_bits,
                                   index_t nrows, index_t ncols,
                                   const CancelToken* cancel = nullptr);

/// Key-only conversion: pattern from the keys, values synthesized as
/// `present` (a value-free semiring's present-value, 1.0 — "true" for
/// bool_or_and), since the stream carries no values to copy.  The
/// bit-identity contract with a wide run of the same value-free semiring
/// holds because the wide run's surviving values are all exactly
/// `present` too (S::add/S::mul of nonzeros is 1.0 for bool_or_and).
mtx::CsrMatrix pb_build_csr_keyonly(const wide_key_t* keys,
                                    std::span<const nnz_t> offsets,
                                    std::span<const nnz_t> merged,
                                    index_t nrows, index_t ncols,
                                    value_t present = 1.0,
                                    const CancelToken* cancel = nullptr);

/// Narrow-f32 conversion to the canonical f64 CSR (values widened).
mtx::CsrMatrix pb_build_csr_narrow_f32(const narrow_key_t* keys,
                                       const f32_val_t* vals,
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
