// PB-SpGEMM symbolic phase (paper Algorithm 3).
//
// Streams only the pointer arrays of A (CSC) and B (CSR) to compute flop,
// picks the bin layout, and — one refinement over the paper's pseudocode —
// histograms flop *per bin* (an O(nnz(A)) pass over A's row ids) so the
// global bin array can be laid out as contiguous per-bin regions of a
// single uninitialized allocation.
#pragma once

#include <span>

#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "pb/binning.hpp"
#include "pb/pb_config.hpp"

namespace pbs::pb {

struct SymbolicResult {
  nnz_t flop = 0;
  BinLayout layout;

  /// Region start of each bin in Cˆ; size layout.nbins + 1.  Regions are
  /// padded to cache-line-friendly tuple multiples (4 tuples = 64 B wide,
  /// 16 tuples = one key line + two value lines narrow) so that every full
  /// local-bin flush lands cache-line aligned and the expand phase can use
  /// non-temporal streaming stores (write full lines with no
  /// read-for-ownership — the paper's "always write tuples in multiples of
  /// cache lines").  bin_offsets.back() >= flop is the Cˆ buffer length.
  std::vector<nnz_t> bin_offsets;

  /// Actual tuple count of each bin; size layout.nbins.  Bin b's tuples
  /// occupy [bin_offsets[b], bin_offsets[b] + bin_fill[b]); the remainder
  /// of the region up to bin_offsets[b+1] is alignment slack.
  std::vector<nnz_t> bin_fill;

  /// Home NUMA node of each bin (size layout.nbins): a contiguous,
  /// flop-balanced partition of the bins over the machine's nodes
  /// (common/numa.hpp).  The placement layer first-touches each bin's
  /// tuple region from a thread on its home node.  All zeros on
  /// single-node hosts.
  std::vector<int> bin_home;

  /// Number of distinct nodes bin_home spans (>= 1).
  int numa_nodes = 1;

  /// Stream format the plan selected (pb/tuple.hpp) and, for the
  /// bin-relative key formats, the column bit width of the packed key.
  /// pb_execute dispatches the format's stream policy from these; the
  /// per-phase entry points take the policy as their stream argument.
  TupleFormat format = TupleFormat::kWide;
  int col_bits = 0;

  /// Modeled memory traffic of this phase (for telemetry).
  double modeled_bytes = 0;
};

/// Structure facts a caller may already own, letting pb_symbolic skip its
/// own O(ncols) flop pass.  The value is trusted: it must describe the
/// exact operands being analyzed (the plan layer derives it from the same
/// fingerprint pass it already runs).
struct SymbolicHints {
  nnz_t flop = -1;  ///< flop(A·B); < 0 when unknown
};

SymbolicResult pb_symbolic(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                           const PbConfig& cfg,
                           const SymbolicHints& hints = {});

/// Estimate of nnz(C) without running the multiplication: per output row,
/// flop_r draws into ncols(B) column slots collide like a balls-into-bins
/// process, so E[distinct] ≈ ncols·(1 − exp(−flop_r/ncols)).  Exact in the
/// two regimes that matter (flop_r ≪ ncols ⇒ ≈flop_r; flop_r ≫ ncols ⇒
/// ≈ncols) and within ~20% in between for unstructured matrices; banded or
/// highly correlated patterns compress more than it predicts.  Cost is one
/// O(nnz(A)) pass.  The ratio flop / estimate is the compression factor cf
/// the roofline-guided algorithm selection runs on (model/selection.hpp).
nnz_t pb_estimate_nnz_c(const mtx::CscMatrix& a, const mtx::CsrMatrix& b);

/// Same estimator over an already-computed per-row flop histogram
/// (mtx::row_flops) — callers holding one (e.g. the executor's selection
/// pass) skip the O(nnz(A)) recount.
nnz_t pb_estimate_nnz_c(std::span<const nnz_t> row_flops, index_t ncols);

/// Structural-only masked estimate: a plain (non-complemented) output mask
/// caps each output row at that row's mask support, so row r contributes
/// min(estimate_r, nnz(mask(r,:))) — strictly sharper than the global
/// min(estimate, nnz(mask)) the selection model applied before, and what
/// keeps masked plans from over-provisioning for output the mask will
/// drop.  Values of `mask` are ignored (pattern only).  Requires
/// row_flops.size() == mask.nrows (the product's row count); throws
/// std::invalid_argument otherwise.  ncols is taken from mask.ncols (the
/// product's column count by the shape contract).
nnz_t pb_estimate_nnz_c_masked(std::span<const nnz_t> row_flops,
                               const mtx::CsrMatrix& mask);

/// Cheap prediction of the tuple format pb_symbolic would select, without
/// running symbolic: derives the bin layout from flop and L2 the way
/// pb_symbolic does and tests the narrow fit.  Exact except for operands
/// that store explicit zeros (pb_symbolic then withholds key-only).
TupleFormat predict_tuple_format(index_t a_nrows, index_t b_ncols, nnz_t flop,
                                 const PbConfig& cfg);

}  // namespace pbs::pb
