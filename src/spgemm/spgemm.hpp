// Common SpGEMM entry-point types.
//
// Different algorithm families want different input formats (paper Table I):
// column/row Gustavson algorithms stream one operand compressed along the
// multiplication axis, while outer-product algorithms need A in CSC and B in
// CSR.  A `SpGemmProblem` therefore carries the operand in every format an
// algorithm might pick, built once outside any timed region — the same
// methodology as the paper, where each algorithm receives its preferred
// layout for free.
#pragma once

#include <functional>
#include <string>

#include "matrix/csc.hpp"
#include "matrix/csr.hpp"

namespace pbs {

struct SpGemmProblem {
  mtx::CsrMatrix a_csr;
  mtx::CscMatrix a_csc;
  mtx::CsrMatrix b_csr;

  /// Prepares A·B.
  static SpGemmProblem multiply(const mtx::CsrMatrix& a,
                                const mtx::CsrMatrix& b);

  /// Prepares A·A (the paper squares every real matrix).
  static SpGemmProblem square(const mtx::CsrMatrix& a);

  [[nodiscard]] index_t result_rows() const { return a_csr.nrows; }
  [[nodiscard]] index_t result_cols() const { return b_csr.ncols; }
};

/// Every algorithm: problem in, canonical CSR out.  Implementations read
/// the OpenMP thread count set by the caller.
using SpGemmFn = std::function<mtx::CsrMatrix(const SpGemmProblem&)>;

// ---- the individual algorithms -------------------------------------------

/// Serial gold standard (ordered-map accumulator).  O(flop log d) and slow;
/// for validation only.
mtx::CsrMatrix reference_spgemm(const SpGemmProblem& p);

/// Row-wise Gustavson with a k-way heap merge (paper's HeapSpGEMM, [22]).
mtx::CsrMatrix heap_spgemm(const SpGemmProblem& p);

/// Row-wise Gustavson with hash accumulation, two-phase symbolic+numeric
/// (paper's HashSpGEMM, Nagasaka et al. [12]).
mtx::CsrMatrix hash_spgemm(const SpGemmProblem& p);

/// Hash variant probing 8-slot bucket groups, the scalar-emulated analogue
/// of the paper's vector-register probing HashVecSpGEMM [12].
mtx::CsrMatrix hashvec_spgemm(const SpGemmProblem& p);

/// Row-wise Gustavson with a dense sparse-accumulator (SPA) [20], [25].
mtx::CsrMatrix spa_spgemm(const SpGemmProblem& p);

/// Row-partitioned expand-sort-compress, the CPU analogue of the GPU ESC
/// algorithms [15], [18] (Table II row 2).
mtx::CsrMatrix esc_column_spgemm(const SpGemmProblem& p);

}  // namespace pbs
