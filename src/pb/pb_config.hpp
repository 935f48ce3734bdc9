// PB-SpGEMM configuration and telemetry.
//
// The two tunables the paper studies in Fig. 6 — the number of global bins
// and the width of the thread-private local bins.  Bins are always the
// contiguous power-of-two row ranges of the paper's Fig. 4 (pb/binning.hpp);
// local bins always flush through the streaming-store path.
//
// Telemetry records per-phase wall time alongside the *modeled* bytes of
// Table III, so "sustained bandwidth" is computed with the same accounting
// the paper uses for Figs. 6, 7b and 9b.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "common/post_op.hpp"
#include "common/types.hpp"
#include "matrix/csr.hpp"

namespace pbs {
class CancelToken;
}

namespace pbs::pb {

/// How the symbolic phase picks the tuple stream format (pb/tuple.hpp).
/// Every request except kWide is a preference: when the requested format
/// is not legal for the plan (narrow/f32 bin-geometry fit, key-only
/// value-freeness) the symbolic phase falls back rather than fail.  The
/// CLI layers a strict legality check on top for explicit user requests.
enum class FormatPolicy {
  kAuto,     ///< key-only for value-free semirings, else narrow when it fits
  kWide,     ///< force the 16 B AoS format (ablation / bitwise comparison)
  kNarrow,   ///< request narrow; falls back to wide when it cannot fit
  kKeyOnly,  ///< request 8 B key-only; needs a value-free semiring
  kF32,      ///< request 8 B narrow-f32; falls back to wide when keys
             ///< cannot fit (value precision is the caller's assertion)
};

const char* to_string(FormatPolicy p);

/// Physical layout of the expanded tuple stream a plan runs with; each
/// value is one stream policy in pb/tuple.hpp.
enum class TupleFormat {
  kWide,       ///< AoS {u64 key, f64 val}, 16 B/tuple
  kNarrow,     ///< SoA u32 bin-relative key + f64 val, 12 B/tuple
  kKeyOnly,    ///< u64 global key, no value array, 8 B/tuple (value-free)
  kNarrowF32,  ///< SoA u32 bin-relative key + f32 val, 8 B/tuple
};

const char* to_string(TupleFormat f);

/// Whether the expand phase applies the fused output mask while scattering
/// tuples (skipping generation of masked-out tuples entirely) or leaves the
/// mask to the post-compress filter.
enum class ExpandMaskMode {
  kAuto,  ///< engage when the mask's kept-side density is sparse enough
  kOff,   ///< always filter at compress (the PR 4 behavior)
  kOn,    ///< always mask at expand (tests/benches force the path)
};

const char* to_string(ExpandMaskMode m);

struct PbConfig {
  /// Number of global bins; 0 selects the paper's rule
  /// nbins ≈ flop·16B / (L2/2), clamped to [1, 2^16] (Algorithm 3, line 6).
  int nbins = 0;

  /// Local (thread-private) bin width in bytes; the paper's default is 512
  /// (Algorithm 2, line 3).  Must hold at least one 16-byte tuple.
  int local_bin_bytes = 512;

  /// Tuple stream format selection (default: narrow when it fits, and
  /// key-only when the semiring is value-free).
  FormatPolicy format = FormatPolicy::kAuto;

  /// Caller's assertion that the semiring is value-free (idempotent-
  /// structural): the output pattern alone determines every value, so the
  /// 8 B key-only stream is legal.  The symbolic phase has no semiring
  /// knowledge, so this is set by the layers that do — pb_spgemm<S> from
  /// the semiring type, the executor from the op's semiring name — and
  /// only read by format selection.  bool_or_and qualifies; a runtime-
  /// registered semiring qualifies when flagged value_free at
  /// registration.
  bool value_free = false;

  /// L2 size used by the auto-nbins rule; 0 = detect at runtime.
  std::size_t l2_bytes = 0;

  /// Expand-phase masking (per run: the decision reads the mask passed to
  /// pb_execute, never plan state — mask patterns may change between
  /// executions of one plan).  Under kAuto the phase engages when the
  /// mask is sparse enough (pb::engage_expand_mask): sparse masks turn
  /// the post-compress traffic win into a flop win (tuples for masked-out
  /// outputs are never generated), while dense masks keep the cheap
  /// compress-stage drop — the merge-scan against the mask row would cost
  /// more than it saves.
  ExpandMaskMode expand_mask = ExpandMaskMode::kAuto;

  /// Extra O(flop) invariant checks after each phase (tests only).
  bool validate = false;

  /// Cooperative cancellation/deadline token for THIS run, polled at
  /// column granularity in expand and bin granularity in sort/compress
  /// and convert.  Per-run state: plans never store a live token
  /// (pb_plan_build clears it), and the plan/execute entry points take
  /// the token as an explicit parameter and thread it through a run-local
  /// config copy.  nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Output-mask request (an SpGemmOp mask lowered to kernel terms): entries
/// whose (row, col) lies outside (or, with complement, inside) the pattern
/// of `csr` are never produced — PB drops them at expand or compress, the
/// row-wise kernels (spgemm/masked.hpp) in their row loops.  Values of
/// `csr` are ignored.  The default is unmasked.
struct MaskSpec {
  const mtx::CsrMatrix* csr = nullptr;  ///< nullptr = unmasked
  bool complement = false;

  [[nodiscard]] bool active() const { return csr != nullptr; }

  /// The one mask-shape check of every masked entry point: throws
  /// std::invalid_argument naming `who` unless an active mask is
  /// (nrows x ncols), the product's shape.
  void check_shape(index_t nrows, index_t ncols, const char* who) const {
    if (active() && (csr->nrows != nrows || csr->ncols != ncols)) {
      throw std::invalid_argument(std::string(who) +
                                  ": mask shape does not match the product");
    }
  }
};

/// Per-run output epilogue fused into pb_execute (descriptor semantics the
/// post-pass used to own):
///  * accumulate — C_old ⊞= A ⊗ B: C_old's rows are union-merged with the
///    product during CSR conversion (per-bin, rows cache-hot), replacing
///    the post-pass semiring_ewise_add and its full extra stream of C.
///    Must match the product's shape; pattern-only equality with the
///    post-pass (S::add(c_old, product) where both present).
///  * post_op — elementwise scale/prune/top-k applied in the per-bin
///    filter stage right after the fused mask (common/post_op.hpp).
/// The two are mutually exclusive (the descriptor layer rejects the
/// combination), and post_op requires a valued stream format.
struct PbEpilogue {
  const mtx::CsrMatrix* accumulate = nullptr;
  PostOp post_op;

  [[nodiscard]] bool active() const {
    return accumulate != nullptr || post_op.active();
  }
};

struct PhaseStats {
  double seconds = 0;
  double bytes = 0;  ///< modeled traffic per Table III

  /// Sustained bandwidth in GB/s under the Table III byte model.
  [[nodiscard]] double gbs() const {
    return seconds > 0 ? bytes / seconds / 1e9 : 0.0;
  }
};

struct PbTelemetry {
  PhaseStats symbolic;
  PhaseStats expand;
  PhaseStats sort;
  PhaseStats compress;
  PhaseStats convert;

  nnz_t flop = 0;
  nnz_t nnz_c = 0;
  /// Tuples the fused output mask dropped at the compress stage (0 when
  /// the run was unmasked).  nnz_c counts survivors only, so
  /// nnz_c + mask_dropped is the unmasked product's nonzero count.
  nnz_t mask_dropped = 0;
  /// Tuples the expand phase never generated because the fused mask was
  /// applied in the scatter loop (ExpandMaskMode): a flop reduction, not
  /// just a traffic one.  When expand masking engages the compress-stage
  /// filter has nothing left to drop, so mask_dropped stays 0 and
  /// flop == generated tuples + mask_skipped_expand.
  nnz_t mask_skipped_expand = 0;
  /// True when this run's expand phase applied the mask in its scatter
  /// loop (mask_skipped_expand is meaningful, even if it skipped nothing).
  bool expand_masked = false;
  /// Entries the fused elementwise post-op removed in the per-bin filter
  /// stage (prune/top-k; a pure scale drops nothing).
  nnz_t post_dropped = 0;
  int nbins = 0;
  index_t rows_per_bin = 0;  ///< the range width of every bin

  /// Stream format this run used and its per-tuple byte cost (the `b` the
  /// phase byte models above were computed with).
  TupleFormat format = TupleFormat::kWide;

  [[nodiscard]] double tuple_bytes() const;

  [[nodiscard]] double cf() const {
    return nnz_c > 0 ? static_cast<double>(flop) / static_cast<double>(nnz_c) : 0.0;
  }

  /// The phases run one after another, so they sum to the run's time.
  [[nodiscard]] double total_seconds() const {
    return symbolic.seconds + expand.seconds + sort.seconds +
           compress.seconds + convert.seconds;
  }

  /// Millions of multiplications per second over the whole run — the
  /// paper's performance metric.
  [[nodiscard]] double mflops() const {
    const double t = total_seconds();
    return t > 0 ? static_cast<double>(flop) / t / 1e6 : 0.0;
  }
};

struct PbResult {
  mtx::CsrMatrix c;
  PbTelemetry stats;
};

}  // namespace pbs::pb
