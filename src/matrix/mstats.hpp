// Multiplication statistics: the quantities the paper's model runs on.
//
//  * flop  — number of scalar multiplications of C = A·B
//            (paper: "floating point operations only denote multiplications")
//  * nnz(C) — output nonzeros, computed by a symbolic row-wise pass
//  * cf    — compression factor flop / nnz(C) (paper Sec. II-A)
//
// These feed Table VI, the Roofline bounds (Eqs. 1, 3, 4), and the per-run
// telemetry of every bench.
#pragma once

#include <vector>

#include "matrix/csc.hpp"
#include "matrix/csr.hpp"

namespace pbs::mtx {

/// Throws std::invalid_argument naming `fn` when A's column count differs
/// from B's row count.  Every pass below walks B's rows by A's column
/// index, so each checks this first instead of reading past b.rowptr.
void check_inner_dims(const char* fn, index_t a_ncols, index_t b_nrows);

/// flop of A·B from the outer-product view: Σ_i nnz(A(:,i)) · nnz(B(i,:)).
/// O(k) — streams only the two pointer arrays, like the paper's Algorithm 3;
/// the cheapest structural invariant of a product, which the PB plan layer
/// also uses as its invalidation check.
nnz_t count_flops(const CscMatrix& a, const CsrMatrix& b);

/// Same value computed row-wise from two CSR operands:
/// Σ_r Σ_{k in A(r,:)} nnz(B(k,:)).  O(nnz(A)).
nnz_t count_flops(const CsrMatrix& a, const CsrMatrix& b);

/// Per-output-row flop (row r of A·B receives Σ_{k in A(r,:)} nnz(B(k,:))
/// products), one independent row per iteration.  O(nnz(A)).
std::vector<nnz_t> row_flops(const CsrMatrix& a, const CsrMatrix& b);

/// nnz(A·B) via a marker-array symbolic pass (row-wise, parallel).
nnz_t symbolic_nnz(const CsrMatrix& a, const CsrMatrix& b);

/// The Table VI row for squaring `a` (the paper's evaluation squares every
/// real matrix).
struct SquareStats {
  index_t n = 0;
  nnz_t nnz = 0;
  double d = 0;       ///< nnz / n
  nnz_t flops = 0;    ///< flop of A·A
  nnz_t nnz_c = 0;    ///< nnz(A·A)
  double cf = 0;      ///< flops / nnz_c
};

SquareStats square_stats(const CsrMatrix& a);

/// Degree-distribution and work-imbalance summary.  The paper attributes
/// PB-SpGEMM's weaker R-MAT scaling (Figs. 9b, 12, 13) to "highly skewed
/// nonzero and flop distributions"; these numbers quantify that skew for
/// any input.
struct DegreeStats {
  nnz_t min_degree = 0;
  nnz_t max_degree = 0;
  double mean_degree = 0;
  nnz_t p99_degree = 0;   ///< 99th-percentile row degree
  /// max over rows of (row flop of A·A) divided by the mean row flop —
  /// 1.0 is perfectly balanced; R-MAT hubs push it into the thousands.
  double flop_imbalance = 0;
};

DegreeStats degree_stats(const CsrMatrix& a);

}  // namespace pbs::mtx
