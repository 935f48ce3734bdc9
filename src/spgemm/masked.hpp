// Masked SpGEMM: C = (A ⊗ B) .* M computed without materializing A ⊗ B.
//
// Triangle counting (paper [2]) and many GraphBLAS-style kernels only need
// the product at positions where a mask matrix M is nonzero.  Fusing the
// mask into the multiplication skips every accumulation outside M's
// pattern — for triangle counting that reduces the output from nnz(L²) to
// nnz(L) entries and removes the separate Hadamard pass.
//
// There is no separate masked kernel: every Gustavson family member takes
// a pb::MaskSpec (pb/pb_config.hpp; default = unmasked) and runs the mask
// test below in its own row loop, generalized over the semiring
// (spgemm/semiring.hpp):
//
//   spgemm_semiring<S>      — dense-accumulator (SPA) row loop
//   heap_spgemm_semiring<S> — k-way heap merge, masked at emission
//   hash_spgemm_semiring<S> — two-phase hash, masked in both phases
//
// The PB pipeline fuses the same MaskSpec at its expand or compress stage
// (pb/plan.hpp).  The preferred way to run a masked multiplication is the
// operation descriptor (spgemm/op.hpp): set SpGemmOp::mask/complement and
// run it through SpGemmExecutor — selection then accounts for the mask's
// density.
#pragma once

#include <vector>

#include "matrix/csr.hpp"
#include "pb/pb_config.hpp"

namespace pbs::detail {

/// Calls body.template operator()<kMasked>() with kMasked = mask.active().
/// The fused row loops are written once over it and guard every mask test
/// with kMasked, so their unmasked instantiation compiles the tests away
/// and a plain multiply runs exactly the loop it would without masking.
template <typename Body>
decltype(auto) dispatch_mask(const pb::MaskSpec& mask, Body&& body) {
  if (mask.active()) return body.template operator()<true>();
  return body.template operator()<false>();
}

/// Per-thread output-mask test shared by the fused row loops (spa, heap,
/// hash) for an active mask.  begin_row(r) stamps the mask row's columns
/// (allowed[c] == r, so clearing between rows is free) and returns false
/// when the row cannot produce anything — an empty plain mask row;
/// skip(c) then applies the polarity in O(1).
class MaskStamp {
 public:
  explicit MaskStamp(const pb::MaskSpec& mask) : mask_(mask) {}

  [[nodiscard]] bool begin_row(index_t r) {
    const auto cols = mask_.csr->row_cols(r);
    if (!mask_.complement && cols.empty()) return false;
    if (allowed_.empty()) {
      allowed_.assign(static_cast<std::size_t>(mask_.csr->ncols), -1);
    }
    for (const index_t c : cols) allowed_[c] = r;
    row_ = r;
    return true;
  }

  /// True when column c of the current row is masked out.
  [[nodiscard]] bool skip(index_t c) const {
    return (allowed_[c] == row_) == mask_.complement;
  }

 private:
  pb::MaskSpec mask_;
  index_t row_ = -1;
  std::vector<index_t> allowed_;
};

}  // namespace pbs::detail
