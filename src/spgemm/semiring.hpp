// Semiring-generalized SpGEMM kernels.
//
// The semiring operator structs themselves live in semiring_ops.hpp (they
// are shared with the propagation-blocking pipeline in pb/); this header
// declares the semiring-templated *algorithms* of the Gustavson family.
// The three row-wise accumulators also take an output mask (pb::MaskSpec,
// default = unmasked) fused into their row loops (spgemm/masked.hpp):
//
//   spgemm_semiring<S>          — row-wise dense accumulator (generalized
//                                 SPA); the fast validation fallback
//   heap_spgemm_semiring<S>     — row-wise k-way heap merge
//   hash_spgemm_semiring<S>     — two-phase hash accumulation: the keyed
//                                 insert stays structural, the combine on
//                                 an occupied slot becomes S::add
//   reference_spgemm_semiring<S>— serial ordered-map gold standard, the
//                                 direct oracle for non-numeric semirings
//
// The bandwidth-optimized PB pipeline's semiring form, pb_spgemm<S>, is
// declared in pb/pb_spgemm.hpp; runtime (algorithm × semiring × mask)
// dispatch — including semirings registered at runtime (spgemm/op.hpp) —
// is in spgemm/registry.hpp.
//
// All kernels keep entries whose accumulated value equals S::zero()
// (structural presence mirrors the numeric convention for exact
// cancellation), so the output pattern is semiring- and
// algorithm-independent.
#pragma once

#include <string>

#include "pb/pb_config.hpp"
#include "spgemm/semiring_ops.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

/// C = A ⊗ B over semiring S (row-wise Gustavson with a dense
/// accumulator, OpenMP-parallel), restricted to `mask` when it is active.
/// Requires a.ncols == b.nrows and a mask of the product's shape.
template <typename S>
mtx::CsrMatrix spgemm_semiring(const mtx::CsrMatrix& a,
                               const mtx::CsrMatrix& b,
                               const pb::MaskSpec& mask = {});

// Instantiated in semiring.cpp for the four semirings above.
extern template mtx::CsrMatrix spgemm_semiring<PlusTimes>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const pb::MaskSpec&);
extern template mtx::CsrMatrix spgemm_semiring<MinPlus>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const pb::MaskSpec&);
extern template mtx::CsrMatrix spgemm_semiring<MaxMin>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const pb::MaskSpec&);
extern template mtx::CsrMatrix spgemm_semiring<BoolOrAnd>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const pb::MaskSpec&);

/// Row-wise Gustavson with a k-way heap merge over semiring S — the
/// generalized form of heap_spgemm (see heap.cpp); an active mask drops
/// columns as they surface from the merge.
template <typename S>
mtx::CsrMatrix heap_spgemm_semiring(const SpGemmProblem& p,
                                    const pb::MaskSpec& mask = {});

// Instantiated in heap.cpp.
extern template mtx::CsrMatrix heap_spgemm_semiring<PlusTimes>(
    const SpGemmProblem&, const pb::MaskSpec&);
extern template mtx::CsrMatrix heap_spgemm_semiring<MinPlus>(
    const SpGemmProblem&, const pb::MaskSpec&);
extern template mtx::CsrMatrix heap_spgemm_semiring<MaxMin>(
    const SpGemmProblem&, const pb::MaskSpec&);
extern template mtx::CsrMatrix heap_spgemm_semiring<BoolOrAnd>(
    const SpGemmProblem&, const pb::MaskSpec&);

/// Row-wise Gustavson with two-phase hash accumulation over semiring S —
/// the generalized form of hash_spgemm (see hash.cpp): symbolic keyed
/// inserts are pure structure, numeric slot hits combine with S::add; an
/// active mask is applied in both phases.
template <typename S>
mtx::CsrMatrix hash_spgemm_semiring(const SpGemmProblem& p,
                                    const pb::MaskSpec& mask = {});

// Instantiated in hash.cpp.
extern template mtx::CsrMatrix hash_spgemm_semiring<PlusTimes>(
    const SpGemmProblem&, const pb::MaskSpec&);
extern template mtx::CsrMatrix hash_spgemm_semiring<MinPlus>(
    const SpGemmProblem&, const pb::MaskSpec&);
extern template mtx::CsrMatrix hash_spgemm_semiring<MaxMin>(
    const SpGemmProblem&, const pb::MaskSpec&);
extern template mtx::CsrMatrix hash_spgemm_semiring<BoolOrAnd>(
    const SpGemmProblem&, const pb::MaskSpec&);

/// Serial ordered-map gold standard over semiring S — the direct oracle
/// for validating non-numeric semirings (generalized reference_spgemm;
/// O(flop log d), validation scale only).
template <typename S>
mtx::CsrMatrix reference_spgemm_semiring(const SpGemmProblem& p);

// Instantiated in reference.cpp.
extern template mtx::CsrMatrix reference_spgemm_semiring<PlusTimes>(
    const SpGemmProblem&);
extern template mtx::CsrMatrix reference_spgemm_semiring<MinPlus>(
    const SpGemmProblem&);
extern template mtx::CsrMatrix reference_spgemm_semiring<MaxMin>(
    const SpGemmProblem&);
extern template mtx::CsrMatrix reference_spgemm_semiring<BoolOrAnd>(
    const SpGemmProblem&);

/// Runtime dispatch by semiring name — built-in or registered through
/// SemiringRegistry (spgemm/op.hpp); throws std::invalid_argument on
/// unknown names.
mtx::CsrMatrix spgemm_semiring_named(const std::string& semiring,
                                     const mtx::CsrMatrix& a,
                                     const mtx::CsrMatrix& b);

}  // namespace pbs
