// SpGemmPlan — reusable, algorithm-selecting multiplication plans
// (FFTW-style plan/execute over the whole algorithm registry), driven by
// the typed operation descriptor SpGemmOp (spgemm/op.hpp):
//
//   SpGemmOp op;                         // algo = "auto" by default
//   op.semiring = "min_plus";            // built-in or runtime-registered
//   op.mask = &m; op.complement = false; // optional fused output mask
//   SpGemmPlan plan = make_plan(problem, op);
//   for (...) c = plan.execute(problem);
//   // accumulating descriptor: op.accumulate = true, then
//   //   c = plan.execute(problem, c);   // c ⊞= A ⊗ B (semiring add)
//
// make_plan analyzes the problem once — flop count, estimated compression
// factor, roofline-guided algorithm selection (model/selection.hpp, with a
// mask-density term when the op carries a mask), and, when the choice
// lands on the PB pipeline, the full symbolic bin layout (pb/plan.hpp) —
// and returns an executable plan with a pooled workspace.  execute() runs
// only the numeric stages: for PB that is expand → sort/compress → convert
// against the captured layout with zero analysis and, at steady state,
// zero allocation; a mask is fused into PB's compress stage (dropped
// tuples are counted in last_pb_stats().mask_dropped) and into the
// heap/hash/spa row loops.
//
// Since PR 5 a plan is a thin single-entry view over a private
// SpGemmExecutor (spgemm/executor.hpp): the analysis products live in the
// executor's fingerprint-keyed LRU cache, so a plan tracking a workload
// that ALTERNATES between a few structures (MCL expand/prune shapes, AMG
// level pairs) replans once per structure, not once per flip — returning
// to a cached structure is an analysis reuse.  Every execute still
// fingerprints the operands (dims + nnz + flop, see
// pb::StructureFingerprint) and a genuinely new structure transparently
// replans (counted in telemetry().replans), re-deriving the algorithm
// choice for "auto" plans.  execute_values_updated() is the value-only
// fast path: when the caller knows only the operands' values changed, the
// flop recount is skipped too and just the numeric stages replay.  The
// mask's *pattern* is never fingerprinted: it may change freely between
// executions (only its shape is pinned at plan time).  telemetry()
// reports executes / replans / analysis reuses and the selection
// rationale; workspace_stats() exposes the pooled allocator's reuse
// counters.  Plans are move-only (they own their executor); callers
// needing shared, concurrent, or multi-op execution should hold a
// SpGemmExecutor directly.
//
// PlanOptions is the pre-descriptor name of SpGemmOp and survives as an
// alias, so existing callers compile unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "model/selection.hpp"
#include "pb/plan.hpp"
#include "spgemm/op.hpp"
#include "spgemm/registry.hpp"

namespace pbs {

class SpGemmExecutor;
struct RunInfo;

/// Legacy name of the operation descriptor (shim).
using PlanOptions = SpGemmOp;

struct PlanTelemetry {
  std::string requested_algo;  ///< what the SpGemmOp asked for
  std::string algo;            ///< the concrete algorithm executing
  std::string semiring;
  bool masked = false;      ///< the op carries a fused output mask
  bool complement = false;  ///< ... with complemented polarity
  /// The roofline decision (populated when requested_algo == "auto");
  /// choice.rationale is the human-readable explanation (including the
  /// mask-density term when masked).
  model::AlgoChoice choice;
  nnz_t flop = 0;           ///< flop(A·B) of the planned structure
  double plan_seconds = 0;  ///< analysis cost of the most recent (re)plan
  /// Roofline prediction for the chosen algorithm (the derated estimate of
  /// `choice` at its default β; populated when requested_algo == "auto")
  /// vs. what the most recent fingerprint-verified execute achieved —
  /// the measurement pairs from which the selection model's derating
  /// constants are learned (SelectionModel::calibrate).  Fixed non-pb
  /// plans skip the fingerprint pass, so their executes leave
  /// achieved_mflops at 0.
  double predicted_mflops = 0;
  double achieved_mflops = 0;
  std::uint64_t executes = 0;
  /// Fingerprint misses after build: structures never seen before (or
  /// evicted).  Flipping back to a structure the backing cache still
  /// holds is NOT a replan — it counts as an analysis reuse.
  std::uint64_t replans = 0;
  /// Executes that reused captured analysis (a cached pb symbolic layout,
  /// or the cached roofline selection for "auto" plans) — including
  /// value-only fast-path executes.  A plan fixed on a non-pb algorithm
  /// caches only kernel resolution: its executes are pass-through and
  /// counted in neither replans nor analysis_reuses.
  std::uint64_t analysis_reuses = 0;
};

class SpGemmPlan {
 public:
  ~SpGemmPlan();
  SpGemmPlan(SpGemmPlan&&) noexcept;
  SpGemmPlan& operator=(SpGemmPlan&&) noexcept;

  /// Multiplies p over the planned op.  Operands whose structure
  /// fingerprint misses the backing cache trigger a transparent replan
  /// (counted in telemetry().replans); cached structures skip analysis
  /// entirely.  Throws std::logic_error when the op declared
  /// accumulate — use the two-argument overload.
  mtx::CsrMatrix execute(const SpGemmProblem& p);

  /// Accumulating execute: returns c ⊞ (A ⊗ B under the op's mask), the
  /// union-pattern combine with the op semiring's add.  Usable on any
  /// plan; the one the descriptor's accumulate flag promises.
  mtx::CsrMatrix execute(const SpGemmProblem& p, const mtx::CsrMatrix& c);

  /// Value-only fast path: the caller asserts p has the same structure as
  /// a previously executed problem of this plan and only the numeric
  /// values changed — the fingerprint's O(ncols) flop recount is skipped
  /// (the cached plan is matched on dims + nnz alone) and only the
  /// numeric stages replay.  Falls back to a normal fingerprinted
  /// execute when no matching structure is cached.  The assertion is
  /// trusted; see SpGemmExecutor::run_values_updated for the contract.
  mtx::CsrMatrix execute_values_updated(const SpGemmProblem& p);

  /// The concrete algorithm currently selected ("pb", "hash", ...).
  [[nodiscard]] const std::string& algo() const { return tm_.algo; }

  /// The descriptor this plan was built from (mask pointer included).
  [[nodiscard]] const SpGemmOp& op() const { return opts_; }

  [[nodiscard]] const PlanTelemetry& telemetry() const { return tm_; }

  /// Per-phase PB telemetry of the most recent execute (valid when
  /// algo() == "pb"; its symbolic phase is zero on reused executions, and
  /// mask_dropped counts the tuples the fused mask removed at compress).
  [[nodiscard]] const pb::PbTelemetry& last_pb_stats() const {
    return pb_stats_;
  }

  /// Reuse counters of the pooled workspace (PB executions draw all
  /// scratch from it; steady state shows reuses growing, allocations not).
  [[nodiscard]] pb::PbWorkspace::Stats workspace_stats() const;

  /// The backing executor — for callers that outgrow the single-op view
  /// (batched descriptors, concurrent execution, calibration) without
  /// rebuilding their plans.
  [[nodiscard]] SpGemmExecutor& executor() { return *exec_; }

 private:
  friend SpGemmPlan make_plan(const SpGemmProblem& p, SpGemmOp op);
  SpGemmPlan();

  /// The common body of both execute overloads (the masked product).
  mtx::CsrMatrix execute_product(const SpGemmProblem& p, bool values_only);

  /// Folds one run's RunInfo into the plan-level telemetry.
  void note_run(const RunInfo& info);

  SpGemmOp opts_;
  PlanTelemetry tm_;
  pb::PbTelemetry pb_stats_;
  std::unique_ptr<SpGemmExecutor> exec_;
};

/// Analyzes `p` and returns an executable plan.  Throws
/// std::invalid_argument for unknown algorithms/semirings, unsupported
/// pairs (same contract as semiring_algorithm), or a mask whose shape does
/// not match the product.
SpGemmPlan make_plan(const SpGemmProblem& p, SpGemmOp op = {});

/// Numeric (+, ×) masked SpGEMM, C = (A · B) .* pattern(mask) (or its
/// complement) — a thin shim over make_plan with SpGemmOp{mask,
/// complement} on the SPA kernel.  Requires matching outer dimensions.
mtx::CsrMatrix spgemm_masked(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                             const mtx::CsrMatrix& mask,
                             bool complement = false);

}  // namespace pbs
