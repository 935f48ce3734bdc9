#include "pb/output.hpp"

namespace pbs::pb {

// The stream views carry mutable lane pointers (expand and sort write
// through them); conversion only reads, so the const inputs below are
// viewed through a const_cast that is never written through.

mtx::CsrMatrix pb_build_csr(const Tuple* tuples,
                            std::span<const nnz_t> offsets,
                            std::span<const nnz_t> merged, index_t nrows,
                            index_t ncols, const CancelToken* cancel) {
  return pb_build_csr(WideStream{const_cast<Tuple*>(tuples)}, offsets, merged,
                      nullptr, 0, nrows, ncols, cancel);
}

mtx::CsrMatrix pb_build_csr_narrow(const narrow_key_t* keys,
                                   const value_t* vals,
                                   std::span<const nnz_t> offsets,
                                   std::span<const nnz_t> merged,
                                   const BinLayout& layout, int col_bits,
                                   index_t nrows, index_t ncols,
                                   const CancelToken* cancel) {
  return pb_build_csr(NarrowStream{const_cast<narrow_key_t*>(keys),
                                   const_cast<value_t*>(vals)},
                      offsets, merged, &layout, col_bits, nrows, ncols,
                      cancel);
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
  detail::build_csr_into(F32Stream{const_cast<narrow_key_t*>(keys),
                                   const_cast<f32_val_t*>(vals)},
                         offsets, merged, KeyGeometry(&layout, col_bits),
                         nrows, out, nullptr);
  return out;
}

}  // namespace pbs::pb
