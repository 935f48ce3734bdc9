// Bin layout: the propagation-blocking partition of output rows.
//
// A layout answers one question — which global bin does output row r's
// tuples propagate to?  Bins own contiguous, power-of-two-aligned row
// ranges (the paper's Fig. 4), so `binid` is a shift, bins are globally
// row-ordered (CSR conversion becomes a streaming copy) and the upper row
// bits inside a bin are constant (the radix sort's byte-skipping then
// reproduces the paper's "4-byte key, four passes" behaviour
// automatically).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"
#include "pb/pb_config.hpp"

namespace pbs::pb {

struct BinLayout {
  int nbins = 1;
  int shift = 0;  ///< binid = row >> shift

  [[nodiscard]] int binid(index_t row) const {
    return static_cast<int>(row >> shift);
  }

  /// Width of every bin's contiguous row range.
  [[nodiscard]] index_t rows_per_bin() const { return index_t{1} << shift; }

  /// Bin-relative row id: the rowid with the bin's constant high bits
  /// stripped — a bijection [0, rows_per_bin) <-> the rows of its bin,
  /// monotone in the rowid so sorting by it preserves row order within
  /// the bin.  This is the row part of the narrow tuple key
  /// (pb/tuple.hpp).
  [[nodiscard]] index_t local_row(index_t row) const {
    // Unsigned mask arithmetic: shift may be as large as 31.
    return static_cast<index_t>(static_cast<std::uint32_t>(row) &
                                ((std::uint32_t{1} << shift) - 1u));
  }

  /// Inverse of local_row for the rows of `bin`.
  [[nodiscard]] index_t global_row(int bin, index_t local) const {
    return (static_cast<index_t>(bin) << shift) | local;
  }

  /// Bits needed to hold any bin's local_row values, given the matrix row
  /// count — the row half of the narrow-format fit test.
  [[nodiscard]] int local_row_bits(index_t nrows) const;

  /// Visits every row `bin` owns, in ascending order — the same order the
  /// bin's sorted tuples carry their rows in, which is what lets the
  /// accumulate builders merge a bin's tuple stream against C's rows in
  /// one forward sweep.  `nrows` clips the top bin, whose range may
  /// extend past the matrix.
  template <typename Fn>
  void for_each_row(int bin, index_t nrows, Fn&& fn) const {
    const index_t lo = static_cast<index_t>(bin) << shift;
    const index_t hi = std::min<index_t>(nrows, lo + rows_per_bin());
    for (index_t r = lo; r < hi; ++r) fn(r);
  }
};

/// The paper's bin-count rule (Algorithm 3 line 6): enough bins that one
/// bin's tuples occupy at most half of L2 during in-cache sort/compress.
int auto_nbins(nnz_t flop, std::size_t l2_bytes);

/// Range layout covering `nrows` rows with ~`nbins_target` bins.
BinLayout make_range_layout(index_t nrows, int nbins_target);

}  // namespace pbs::pb
