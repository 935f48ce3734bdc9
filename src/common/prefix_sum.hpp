// Exclusive prefix sums (scans).
//
// Scans appear on every hot path of this library: building CSR/CSC row
// pointers, laying out the global bins from per-bin flop histograms, and
// placing per-column expansion slices in the column-ESC baseline.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace pbs {

/// In-place exclusive scan over n+1 slots: on entry `a[0..n)` holds counts
/// (slot n ignored); on exit `a[i]` is the sum of the first i counts and
/// `a[n]` the grand total.  Returns the total.
nnz_t exclusive_scan_inplace(nnz_t* a, std::size_t n);

/// CSR row-pointer finalization: on entry `rowptr[0] == 0` and
/// `rowptr[r+1]` holds row r's count; on exit `rowptr` is the standard CSR
/// pointer array (inclusive running sum).  `n` is the number of rows, so
/// `rowptr` has n+1 slots.  Returns the total count.
nnz_t counts_to_rowptr(nnz_t* rowptr, std::size_t n);

}  // namespace pbs
