#include "common/prefix_sum.hpp"

namespace pbs {

nnz_t exclusive_scan_inplace(nnz_t* a, std::size_t n) {
  nnz_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const nnz_t count = a[i];
    a[i] = running;
    running += count;
  }
  a[n] = running;
  return running;
}

nnz_t counts_to_rowptr(nnz_t* rowptr, std::size_t n) {
  for (std::size_t r = 0; r < n; ++r) rowptr[r + 1] += rowptr[r];
  return rowptr[n];
}

}  // namespace pbs
