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
// The phase is templated on the semiring: the only algebraic operation it
// performs is the scalar multiply A(r,i) ⊗ B(i,c), which becomes S::mul.
// Routing, blocking and the store policy are semiring-independent, so every
// instantiation streams memory identically.  Kernels are defined in
// expand_impl.hpp and explicitly instantiated in expand.cpp for the four
// built-in semirings; the non-template overload is the numeric (+, ×)
// entry point and keeps the pre-semiring ABI.
#pragma once

#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "pb/symbolic.hpp"
#include "pb/tuple.hpp"
#include "spgemm/semiring_ops.hpp"

namespace pbs::pb {

/// Whether this run's expand phase should apply the fused output mask in
/// its scatter loop (ExpandMaskMode): forced by kOn, and under kAuto
/// engaged when the kept-side density — nnz(mask)/cells, complement-
/// flipped — is at most cfg.expand_mask_max_density.  A per-run decision:
/// the mask is run state, never plan state, so pb_execute calls this with
/// the mask actually passed to it.
inline bool engage_expand_mask(const MaskSpec& mask, const PbConfig& cfg,
                               index_t nrows, index_t ncols) {
  if (!mask.active() || cfg.expand_mask == ExpandMaskMode::kOff) return false;
  if (cfg.expand_mask == ExpandMaskMode::kOn) return true;
  const double cells = static_cast<double>(nrows) * static_cast<double>(ncols);
  if (cells <= 0) return true;
  const double density = static_cast<double>(mask.csr->nnz()) / cells;
  const double kept = mask.complement ? 1.0 - density : density;
  return kept <= cfg.expand_mask_max_density;
}

/// Fills `out[0 .. sym.flop)` with the expanded tuples of A ⊗ B over
/// semiring S, bin by bin according to sym.bin_offsets.  `out` must have
/// room for sym.flop tuples.  Returns the number of local-bin flushes
/// (telemetry for the Fig. 6a bin-width study).
///
/// With an active `emask` the scatter loop applies the fused output mask
/// while generating: tuples whose (row, col) fails the mask polarity are
/// never multiplied, buffered or flushed (a flop reduction — the
/// ExpandMaskMode path).  Bins then hold fewer tuples than the symbolic
/// fill marks; `actual_fill` (when non-null, length layout.nbins)
/// receives each bin's generated tuple count, which downstream
/// sort/compress must use in place of sym.bin_fill.
template <typename S>
nnz_t pb_expand(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                const SymbolicResult& sym, const PbConfig& cfg, Tuple* out,
                const MaskSpec& emask = {}, nnz_t* actual_fill = nullptr);

/// Narrow-format expand: same routing, but writes the SoA stream — packed
/// bin-relative u32 keys to `out_keys` and values to `out_vals` (12 B per
/// tuple instead of 16; see pb/tuple.hpp).  Requires a symbolic result
/// whose bin regions were padded for the narrow format
/// (sym.format == TupleFormat::kNarrow); both arrays need room for
/// sym.bin_offsets.back() entries.
template <typename S>
nnz_t pb_expand_narrow(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                       const SymbolicResult& sym, const PbConfig& cfg,
                       narrow_key_t* out_keys, value_t* out_vals,
                       const MaskSpec& emask = {},
                       nnz_t* actual_fill = nullptr);

/// Key-only expand: writes the bare 8 B global keys — no value array
/// exists in this format, so there is no multiply and no semiring
/// parameter (legal only for value-free semirings; see pb/tuple.hpp).
/// Requires sym.format == TupleFormat::kKeyOnly; `out_keys` needs room
/// for sym.bin_offsets.back() entries.
nnz_t pb_expand_keyonly(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                        const SymbolicResult& sym, const PbConfig& cfg,
                        wide_key_t* out_keys, const MaskSpec& emask = {},
                        nnz_t* actual_fill = nullptr);

/// Narrow-f32 expand: the narrow SoA stream with a 4 B value lane (8 B per
/// tuple).  Products are computed in double and narrowed on store.
/// Requires sym.format == TupleFormat::kNarrowF32.
template <typename S>
nnz_t pb_expand_narrow_f32(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                           const SymbolicResult& sym, const PbConfig& cfg,
                           narrow_key_t* out_keys, f32_val_t* out_vals,
                           const MaskSpec& emask = {},
                           nnz_t* actual_fill = nullptr);

extern template nnz_t pb_expand<PlusTimes>(const mtx::CscMatrix&,
                                           const mtx::CsrMatrix&,
                                           const SymbolicResult&,
                                           const PbConfig&, Tuple*,
                                           const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand<MinPlus>(const mtx::CscMatrix&,
                                         const mtx::CsrMatrix&,
                                         const SymbolicResult&,
                                         const PbConfig&, Tuple*,
                                         const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand<MaxMin>(const mtx::CscMatrix&,
                                        const mtx::CsrMatrix&,
                                        const SymbolicResult&,
                                        const PbConfig&, Tuple*,
                                        const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand<BoolOrAnd>(const mtx::CscMatrix&,
                                           const mtx::CsrMatrix&,
                                           const SymbolicResult&,
                                           const PbConfig&, Tuple*,
                                           const MaskSpec&, nnz_t*);

extern template nnz_t pb_expand_narrow<PlusTimes>(
    const mtx::CscMatrix&, const mtx::CsrMatrix&, const SymbolicResult&,
    const PbConfig&, narrow_key_t*, value_t*, const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand_narrow<MinPlus>(
    const mtx::CscMatrix&, const mtx::CsrMatrix&, const SymbolicResult&,
    const PbConfig&, narrow_key_t*, value_t*, const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand_narrow<MaxMin>(
    const mtx::CscMatrix&, const mtx::CsrMatrix&, const SymbolicResult&,
    const PbConfig&, narrow_key_t*, value_t*, const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand_narrow<BoolOrAnd>(
    const mtx::CscMatrix&, const mtx::CsrMatrix&, const SymbolicResult&,
    const PbConfig&, narrow_key_t*, value_t*, const MaskSpec&, nnz_t*);

extern template nnz_t pb_expand_narrow_f32<PlusTimes>(
    const mtx::CscMatrix&, const mtx::CsrMatrix&, const SymbolicResult&,
    const PbConfig&, narrow_key_t*, f32_val_t*, const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand_narrow_f32<MinPlus>(
    const mtx::CscMatrix&, const mtx::CsrMatrix&, const SymbolicResult&,
    const PbConfig&, narrow_key_t*, f32_val_t*, const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand_narrow_f32<MaxMin>(
    const mtx::CscMatrix&, const mtx::CsrMatrix&, const SymbolicResult&,
    const PbConfig&, narrow_key_t*, f32_val_t*, const MaskSpec&, nnz_t*);
extern template nnz_t pb_expand_narrow_f32<BoolOrAnd>(
    const mtx::CscMatrix&, const mtx::CsrMatrix&, const SymbolicResult&,
    const PbConfig&, narrow_key_t*, f32_val_t*, const MaskSpec&, nnz_t*);

/// Numeric (+, ×) expand — equivalent to pb_expand<PlusTimes>.
nnz_t pb_expand(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                const SymbolicResult& sym, const PbConfig& cfg, Tuple* out,
                const MaskSpec& emask = {}, nnz_t* actual_fill = nullptr);

}  // namespace pbs::pb
