// Compressed Sparse Column matrix.
//
// PB-SpGEMM streams the first operand column-by-column (paper Algorithm 2
// takes A in CSC), so CSC is a first-class format here rather than "CSR of
// the transpose".
//
// Storage contract, as for CsrMatrix: rowids and vals are
// DefaultInitVector, so `resize` leaves new entries unwritten and every
// producer writes all of them; colptr is a zero-filled std::vector that
// count passes add into.  The implicit conversion to std::vector<T> exists
// for the same outside callers (perfbench) that copy a matrix's arrays.
#pragma once

#include <span>
#include <vector>

#include "common/default_init_vector.hpp"
#include "common/types.hpp"

namespace pbs::mtx {

struct CscMatrix {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<nnz_t> colptr;    ///< size ncols + 1
  DefaultInitVector<index_t> rowids;  ///< size nnz, sorted within each column
  DefaultInitVector<value_t> vals;    ///< size nnz

  CscMatrix() : colptr{0} {}
  CscMatrix(index_t r, index_t c)
      : nrows(r), ncols(c), colptr(static_cast<std::size_t>(c) + 1, 0) {}

  [[nodiscard]] nnz_t nnz() const {
    return colptr.empty() ? 0 : colptr.back();
  }

  [[nodiscard]] double avg_degree() const {
    return ncols == 0 ? 0.0 : static_cast<double>(nnz()) / ncols;
  }

  [[nodiscard]] nnz_t col_nnz(index_t c) const {
    return colptr[static_cast<std::size_t>(c) + 1] - colptr[c];
  }

  [[nodiscard]] std::span<const index_t> col_rows(index_t c) const {
    return {rowids.data() + colptr[c], static_cast<std::size_t>(col_nnz(c))};
  }

  [[nodiscard]] std::span<const value_t> col_vals(index_t c) const {
    return {vals.data() + colptr[c], static_cast<std::size_t>(col_nnz(c))};
  }

  [[nodiscard]] bool valid() const;
};

}  // namespace pbs::mtx
