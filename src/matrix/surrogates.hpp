// The paper's Table VI matrix suite.
//
// The twelve evaluation matrices come from the SuiteSparse Matrix
// Collection, which is not reachable offline.  This module provides, for
// each matrix:
//
//  * the *published* statistics (n, nnz, d, flop, nnz(C), cf) from Table VI
//    of the paper, used for paper-vs-measured comparison, and
//  * a *structured surrogate generator* whose output reproduces the
//    published n, nnz and — approximately — the compression factor of A²,
//    which is the property Fig. 11's conclusion depends on ("PB-SpGEMM wins
//    iff cf < 4", paper Sec. V-B / VI).
//
// Surrogate recipes:
//  * FEM / discretization matrices (2cubes_sphere, cage12, cant, hood,
//    majorbasis, mc2depi, offshore, scircuit, amazon0505) → banded matrices
//    with half-bandwidth w ≈ d² / (4·cf): a band of that width makes A²'s
//    row support ≈ 4w while flop/row ≈ d², reproducing cf.
//  * Near-collision-free matrices (m133-b3, patents_main) → ER (cf ≈ 1).
//  * web-Google → R-MAT with Graph500 skew (power-law degrees).
//
// If the environment variable PBS_MATRIX_DIR points to a directory with the
// real `<name>.mtx` files, those are loaded instead.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "matrix/csr.hpp"

namespace pbs::mtx {

struct SuiteEntry {
  std::string name;
  // Published Table VI values.
  index_t n;
  nnz_t nnz;
  double d;
  nnz_t flops;
  nnz_t nnz_c;
  double cf;
};

/// The twelve Table VI matrices in the paper's order (ascending cf is the
/// Fig. 11 x-axis ordering; use sorted_by_cf()).
const std::vector<SuiteEntry>& table6_suite();

/// Suite sorted by ascending compression factor (Fig. 11 ordering).
std::vector<SuiteEntry> table6_sorted_by_cf();

/// Loads `<dir>/<name>.mtx` if PBS_MATRIX_DIR (or `dir_override`) provides
/// it, else builds the surrogate.  `shrink` divides the dimension (and
/// scales nnz along with it) so laptop-scale runs finish; shrink = 1 is the
/// paper-faithful size.  Returns the matrix in CSR with metadata about
/// which path was taken.
struct SuiteMatrix {
  SuiteEntry entry;        ///< published stats (unscaled)
  CsrMatrix matrix;        ///< the actual operand
  bool from_file = false;  ///< true when a real .mtx was loaded
};

SuiteMatrix load_suite_matrix(const SuiteEntry& entry, double shrink = 1.0,
                              std::optional<std::string> dir_override = {});

/// Finds a suite entry by name (exact match); throws if unknown.
const SuiteEntry& suite_entry(const std::string& name);

}  // namespace pbs::mtx
