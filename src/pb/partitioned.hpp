// Partitioned PB-SpGEMM (paper Sec. V-D).
//
// The paper reports that on dual-socket NUMA systems PB-SpGEMM loses its
// edge because bins filled on one socket get sorted by threads of the
// other, and mentions (from the first author's thesis) a mitigation:
// partition A into row blocks and multiply each block with B independently
// so every block's bins stay socket-local, at the cost of reading B once
// per partition.
//
// This module implements that variant: A (CSC) is split into `nparts`
// contiguous row ranges; each part runs the full PB pipeline; the
// per-part CSR results are stacked (their row ranges are disjoint and
// ordered, so stacking is a concatenation).  On a single socket it serves
// as the ablation for the extra-B-reads trade-off the paper describes
// (bench/ext_partitioned).
#pragma once

#include "pb/plan.hpp"

namespace pbs::pb {

struct PartitionedResult {
  mtx::CsrMatrix c;
  /// Telemetry of each part, in row order.
  std::vector<PbTelemetry> parts;

  [[nodiscard]] double total_seconds() const {
    double t = 0;
    for (const PbTelemetry& p : parts) t += p.total_seconds();
    return t;
  }
};

/// Multiplies A·B with A split into `nparts` row blocks (each part's plan
/// built and executed once).  nparts == 1 is equivalent to pb_spgemm.
/// Requires 1 <= nparts and a.ncols == b.nrows.
PartitionedResult pb_spgemm_partitioned(const mtx::CscMatrix& a,
                                        const mtx::CsrMatrix& b, int nparts,
                                        const PbConfig& cfg = {});

// ---- tile slicing primitives ----------------------------------------------
//
// The contiguous-range splits of the 1D row decomposition above, exposed
// so the 2D shard router (serve/shard.hpp) can generalize them to a
// row×column tile grid: A split row-wise, B split column-wise, each tile
// multiplied by an independent executor and the tile outputs merged back
// into one CSR.

/// Bounds of `k` contiguous, balanced ranges covering [0, n): k+1
/// ascending cut points with front() == 0 and back() == n.  Requires
/// k >= 1; ranges are empty only when k > n.
std::vector<index_t> split_ranges(index_t n, int k);

/// Extracts rows [row_lo, row_hi) of A (CSC) with row ids rebased to 0.
/// One filtering pass per column — the "read A once per partition" cost
/// the paper attributes to the partitioned variant.
mtx::CscMatrix slice_rows(const mtx::CscMatrix& a, index_t row_lo,
                          index_t row_hi);

/// Extracts rows [row_lo, row_hi) of A (CSR) — a contiguous copy, no
/// filtering pass.
mtx::CsrMatrix slice_rows(const mtx::CsrMatrix& a, index_t row_lo,
                          index_t row_hi);

/// Extracts columns [col_lo, col_hi) of A (CSR) with column ids rebased
/// to 0.  One filtering pass over the nonzeros (columns are sorted within
/// each row, so the kept run of every row is contiguous).
mtx::CsrMatrix slice_cols(const mtx::CsrMatrix& a, index_t col_lo,
                          index_t col_hi);

/// Stacks per-block CSR results owning disjoint, ascending row ranges
/// into one (nrows × ncols) CSR — the merge step of the row-partitioned
/// variant.  Blocks are concatenated in order; rows past the last block
/// stay empty.
mtx::CsrMatrix stack_row_blocks(const std::vector<mtx::CsrMatrix>& pieces,
                                index_t nrows, index_t ncols);

}  // namespace pbs::pb
