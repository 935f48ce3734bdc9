// HashSpGEMM — row-wise Gustavson with linear-probing hash accumulation
// (paper Sec. IV-A, after Nagasaka et al. [12], [27]).
//
// Generalized over any semiring via the keyed insert-or-combine step in
// hash_table.hpp (hash_spgemm_semiring<S>); hash_spgemm is the numeric
// (+, ×) instantiation, and an output mask (pb::MaskSpec) fuses into both
// the symbolic and numeric row loops (see hash_impl.hpp).
#include "spgemm/hash_impl.hpp"
#include "spgemm/hash_table.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"
#include "spgemm/semiring.hpp"

namespace pbs {

template <typename S>
mtx::CsrMatrix hash_spgemm_semiring(const SpGemmProblem& p,
                                    const pb::MaskSpec& mask) {
  mask.check_shape(p.result_rows(), p.result_cols(), "hash_spgemm_semiring");
  return detail::dispatch_mask(mask, [&]<bool kMasked>() {
    return detail::hash_spgemm_impl<S, detail::HashAccumulator, kMasked>(
        p, mask);
  });
}

template mtx::CsrMatrix hash_spgemm_semiring<PlusTimes>(const SpGemmProblem&,
                                                        const pb::MaskSpec&);
template mtx::CsrMatrix hash_spgemm_semiring<MinPlus>(const SpGemmProblem&,
                                                      const pb::MaskSpec&);
template mtx::CsrMatrix hash_spgemm_semiring<MaxMin>(const SpGemmProblem&,
                                                     const pb::MaskSpec&);
template mtx::CsrMatrix hash_spgemm_semiring<BoolOrAnd>(const SpGemmProblem&,
                                                        const pb::MaskSpec&);
// The runtime-semiring bridge (spgemm/op.hpp).
template mtx::CsrMatrix hash_spgemm_semiring<DynSemiring>(const SpGemmProblem&,
                                                          const pb::MaskSpec&);

mtx::CsrMatrix hash_spgemm(const SpGemmProblem& p) {
  return hash_spgemm_semiring<PlusTimes>(p);
}

}  // namespace pbs
