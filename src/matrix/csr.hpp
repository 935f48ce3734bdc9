// Compressed Sparse Row matrix.
//
// Row pointers are 64-bit (`nnz_t`): flop counts and expanded-tuple offsets
// overflow 32 bits long before matrices stop fitting in memory.  Column
// indices and values are the paper's 4-byte / 8-byte widths.
//
// Storage contract: colids and vals are DefaultInitVector
// (common/default_init_vector.hpp), so `resize` leaves the new entries
// unwritten, and every producer writes all of them before the matrix
// escapes.  That lets a parallel producer sized in one call (PB's
// convert, the row-wise kernels' stitch) first-touch the output from the
// threads that write it instead of paying a serial zero-fill.  rowptr
// stays a zero-filled std::vector: count passes add into it.  The arrays
// convert implicitly to a plain std::vector<T> (a copy) because callers
// outside the library, such as perfbench's serve-mix, copy-initialize
// one from `vals`.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/default_init_vector.hpp"
#include "common/types.hpp"

namespace pbs::mtx {

struct CsrMatrix {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<nnz_t> rowptr;    ///< size nrows + 1
  DefaultInitVector<index_t> colids;  ///< size nnz, sorted within each row
  DefaultInitVector<value_t> vals;    ///< size nnz

  CsrMatrix() : rowptr{0} {}
  CsrMatrix(index_t r, index_t c)
      : nrows(r), ncols(c), rowptr(static_cast<std::size_t>(r) + 1, 0) {}

  [[nodiscard]] nnz_t nnz() const {
    return rowptr.empty() ? 0 : rowptr.back();
  }

  /// Average nonzeros per row — the paper's d(A).
  [[nodiscard]] double avg_degree() const {
    return nrows == 0 ? 0.0 : static_cast<double>(nnz()) / nrows;
  }

  [[nodiscard]] nnz_t row_nnz(index_t r) const {
    return rowptr[static_cast<std::size_t>(r) + 1] - rowptr[r];
  }

  [[nodiscard]] std::span<const index_t> row_cols(index_t r) const {
    return {colids.data() + rowptr[r], static_cast<std::size_t>(row_nnz(r))};
  }

  [[nodiscard]] std::span<const value_t> row_vals(index_t r) const {
    return {vals.data() + rowptr[r], static_cast<std::size_t>(row_nnz(r))};
  }

  /// Structural invariants: monotone rowptr, in-range sorted column ids,
  /// consistent array sizes.  Used by tests and debug assertions.
  [[nodiscard]] bool valid() const;

  /// n x n identity.
  static CsrMatrix identity(index_t n);

  /// Diagonal matrix from d.
  static CsrMatrix diagonal(std::span<const value_t> d);
};

/// Value acceptance policy of csr_validate.  kAny admits every double
/// (MinPlus/MaxMin legitimately carry ±inf); kFinite rejects NaN and
/// infinities — the right policy for numeric (+, ×) ingress and for
/// freshly parsed files.
enum class ValuePolicy { kAny, kFinite };

/// Diagnostic outcome of csr_validate: `ok`, or the first violation
/// described well enough to act on (row, index, observed value).
struct CsrValidation {
  bool ok = true;
  std::string error;

  explicit operator bool() const { return ok; }
};

/// Full structural audit of `m`: consistent array sizes, monotone
/// in-bounds rowptr, in-range strictly-sorted column ids per row, and —
/// under ValuePolicy::kFinite — finite values.  Unlike CsrMatrix::valid()
/// this reports WHERE the structure is broken, so ingress layers can
/// reject hostile or corrupt matrices with a usable diagnostic instead
/// of computing undefined results.
CsrValidation csr_validate(const CsrMatrix& m,
                           ValuePolicy policy = ValuePolicy::kAny);

/// Throwing form: raises ValidationError("<what>: <violation>") on the
/// first violation; returns normally on a well-formed matrix.
void csr_validate_or_throw(const CsrMatrix& m, const std::string& what,
                           ValuePolicy policy = ValuePolicy::kAny);

/// Exact structural + value equality.
bool equal_exact(const CsrMatrix& a, const CsrMatrix& b);

/// Same structure; values compared with |x-y| <= atol + rtol*|y|.
bool equal_approx(const CsrMatrix& a, const CsrMatrix& b, double rtol = 1e-12,
                  double atol = 1e-12);

}  // namespace pbs::mtx
