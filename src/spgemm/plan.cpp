#include "spgemm/plan.hpp"

#include <stdexcept>
#include <utility>

#include "spgemm/executor.hpp"

namespace pbs {

SpGemmPlan::SpGemmPlan() = default;
SpGemmPlan::~SpGemmPlan() = default;
SpGemmPlan::SpGemmPlan(SpGemmPlan&&) noexcept = default;
SpGemmPlan& SpGemmPlan::operator=(SpGemmPlan&&) noexcept = default;

void SpGemmPlan::note_run(const RunInfo& info) {
  ++tm_.executes;
  if (info.passthrough) return;  // nothing cached, nothing reused
  if (info.cache_hit) {
    ++tm_.analysis_reuses;
  } else {
    ++tm_.replans;
    tm_.plan_seconds = info.plan_seconds;
  }
  // The entry that ran may differ from the one before (alternating
  // structures): keep the visible telemetry tracking what executed.
  tm_.algo = info.algo;
  tm_.flop = info.flop;
  tm_.choice = info.choice;
  tm_.predicted_mflops = info.predicted_mflops;
  tm_.achieved_mflops = info.achieved_mflops;
  if (info.used_pb) pb_stats_ = info.pb_stats;
}

mtx::CsrMatrix SpGemmPlan::execute_product(const SpGemmProblem& p,
                                           bool values_only) {
  // The accumulate flag is enforced at this level (the overload taken);
  // the executor must see a plain product request.  It shares the cached
  // plan either way — accumulate is not part of the cache key.
  SpGemmOp op = opts_;
  op.accumulate = false;
  RunInfo info;
  mtx::CsrMatrix c = values_only ? exec_->run_values_updated(p, op, &info)
                                 : exec_->run(p, op, &info);
  note_run(info);
  return c;
}

mtx::CsrMatrix SpGemmPlan::execute(const SpGemmProblem& p) {
  if (opts_.accumulate) {
    throw std::logic_error(
        "SpGemmPlan::execute: the op declared accumulate — pass the matrix "
        "to accumulate into (execute(problem, c))");
  }
  return execute_product(p, /*values_only=*/false);
}

mtx::CsrMatrix SpGemmPlan::execute(const SpGemmProblem& p,
                                   const mtx::CsrMatrix& c) {
  // Routed through the executor's accumulating run so the pb path merges
  // c during CSR conversion instead of a post-pass over the materialized
  // product; row-wise paths still post-pass (bit-identical either way).
  SpGemmOp op = opts_;
  op.accumulate = false;  // the overload IS the declaration
  RunInfo info;
  mtx::CsrMatrix out = exec_->run(p, op, c, &info);
  note_run(info);
  return out;
}

mtx::CsrMatrix SpGemmPlan::execute_values_updated(const SpGemmProblem& p) {
  if (opts_.accumulate) {
    throw std::logic_error(
        "SpGemmPlan::execute_values_updated: the op declared accumulate — "
        "pass the matrix to accumulate into (execute(problem, c))");
  }
  return execute_product(p, /*values_only=*/true);
}

pb::PbWorkspace::Stats SpGemmPlan::workspace_stats() const {
  return exec_->workspace_stats();
}

SpGemmPlan make_plan(const SpGemmProblem& p, SpGemmOp op) {
  SpGemmPlan plan;
  plan.opts_ = std::move(op);
  // A handful of cached structures per plan covers the alternating
  // workloads (MCL's expand/prune flip, AMG's per-level pairs) without
  // letting an iterative app with drifting structure hoard stale layouts.
  ExecutorOptions eo;
  eo.cache_capacity = 4;
  plan.exec_ = std::make_unique<SpGemmExecutor>(eo);

  RunInfo info;
  plan.exec_->prepare(p, plan.opts_, &info);  // throws exactly like before
  plan.tm_.requested_algo = plan.opts_.algo;
  plan.tm_.semiring = plan.opts_.semiring;
  plan.tm_.masked = plan.opts_.mask != nullptr;
  plan.tm_.complement = plan.opts_.complement;
  plan.tm_.algo = info.algo;
  plan.tm_.flop = info.flop;
  plan.tm_.plan_seconds = info.plan_seconds;
  plan.tm_.predicted_mflops = info.predicted_mflops;
  plan.tm_.choice = info.choice;
  return plan;
}

mtx::CsrMatrix spgemm_masked(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                             const mtx::CsrMatrix& mask, bool complement) {
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  SpGemmOp op;
  op.algo = "spa";
  op.mask = &mask;
  op.complement = complement;
  return make_plan(p, op).execute(p);
}

}  // namespace pbs
