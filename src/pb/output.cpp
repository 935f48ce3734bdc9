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

}  // namespace pbs::pb
