#include "model/selection.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace pbs::model {

namespace {

double median(std::vector<double>& v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

}  // namespace

CalibrationResult SelectionModel::calibrate(
    std::span<const PerfSample> samples) {
  // Invert each prediction through the constants it was made with (the
  // sample's own, falling back to this model's for samples that did not
  // record them) to get the underated roofline estimate;
  // achieved/underated is that sample's observed derating for its family.
  std::vector<double> pb_obs;
  std::vector<double> col_obs;
  for (const PerfSample& s : samples) {
    if (s.predicted_mflops <= 0 || s.achieved_mflops <= 0 || s.cf <= 0) {
      continue;
    }
    if (s.algo == "pb") {
      const double eff_at_prediction =
          s.pb_efficiency > 0 ? s.pb_efficiency : pb_efficiency;
      const double underated = s.predicted_mflops / eff_at_prediction;
      pb_obs.push_back(
          std::clamp(s.achieved_mflops / underated, 0.01, 1.0));
    } else {
      // The column families were predicted with efficiency
      // cf/(cf + penalty); solve the observed efficiency back for the
      // penalty that would have produced it at this sample's cf.
      const double penalty_at_prediction = s.column_latency_penalty > 0
                                               ? s.column_latency_penalty
                                               : column_latency_penalty;
      const double eff_pred = s.cf / (s.cf + penalty_at_prediction);
      const double underated = s.predicted_mflops / eff_pred;
      const double eff_obs =
          std::clamp(s.achieved_mflops / underated, 1e-3, 0.999);
      col_obs.push_back(s.cf * (1.0 - eff_obs) / eff_obs);
    }
  }

  CalibrationResult r;
  r.pb_samples = static_cast<int>(pb_obs.size());
  r.column_samples = static_cast<int>(col_obs.size());
  if (!pb_obs.empty()) pb_efficiency = median(pb_obs);
  if (!col_obs.empty()) {
    column_latency_penalty = std::clamp(median(col_obs), 0.0, 1e3);
  }
  r.pb_efficiency = pb_efficiency;
  r.column_latency_penalty = column_latency_penalty;
  r.changed = !pb_obs.empty() || !col_obs.empty();
  return r;
}

AlgoChoice select_algorithm(double cf, nnz_t flop, bool hash_available,
                            const SelectionModel& m, const MaskModel& mask) {
  AlgoChoice choice;
  choice.cf = std::max(cf, 1.0);  // cf < 1 is an estimator artifact

  // A plain mask caps the surviving output at nnz(mask) and lets the
  // Gustavson row loops skip every wedge whose output row has no mask
  // entry; a complemented mask constrains nothing a priori.  coverage is
  // floored so an (degenerate) empty mask reads as "column family does
  // essentially no work" rather than dividing by zero.
  const bool capping = mask.present && !mask.complement;
  double coverage = 1.0;
  choice.cf_out = choice.cf;
  if (capping) {
    const double nnz_est =
        std::max(static_cast<double>(flop) / choice.cf, 1.0);
    const double nnz_out = std::min(
        nnz_est, static_cast<double>(std::max<nnz_t>(mask.mask_nnz, 1)));
    choice.cf_out = static_cast<double>(flop) / nnz_out;
    coverage = std::clamp(mask.coverage, 1e-9, 1.0);
  }

  choice.ai_outer =
      capping ? ai_outer_lower_masked(choice.cf, choice.cf_out,
                                      m.bytes_per_nnz, m.pb_tuple_bytes)
              : ai_outer_lower_tuple(choice.cf, m.bytes_per_nnz,
                                     m.pb_tuple_bytes);
  choice.ai_column =
      capping ? ai_column_lower_masked(choice.cf, choice.cf_out,
                                       m.bytes_per_nnz)
              : ai_column_lower(choice.cf, m.bytes_per_nnz);

  // Accumulator reuse is flop per surviving output entry, so the latency
  // derating runs on cf_out (== cf unmasked).
  const double col_eff = choice.cf_out / (choice.cf_out + m.column_latency_penalty);
  // Fused expand masking (pb::ExpandMaskMode): when it engages, PB's
  // scatter loops skip generating masked-out tuples, so in nominal-flop
  // terms PB is credited the tuples it never expands — the outer-product
  // mirror of the column family's 1/coverage credit below.
  double expand_mask_credit = 1.0;
  if (mask.present && mask.expand_skip) {
    expand_mask_credit = 1.0 / std::clamp(mask.kept_density, 1e-9, 1.0);
  }
  choice.pb_mflops = attainable_gflops(m.beta_gbs, choice.ai_outer) *
                     m.pb_efficiency * 1e3 * expand_mask_credit;
  // In nominal-flop terms the column family is credited the wedges its
  // masked row loops never execute (1/coverage ≥ 1; exactly 1 unmasked).
  choice.column_mflops = attainable_gflops(m.beta_gbs, choice.ai_column) *
                         col_eff * 1e3 / coverage;

  // Wedges outside the mask are skipped work for every family's setup
  // consideration: gate the small-problem cutoff on what actually runs.
  const auto effective_flop =
      static_cast<nnz_t>(static_cast<double>(flop) * coverage);

  const std::string column_algo = hash_available ? "hash" : "heap";
  std::ostringstream why;
  if (effective_flop < m.small_flop_threshold) {
    choice.algo = "heap";
    why << "flop " << effective_flop << " < " << m.small_flop_threshold
        << ": PB setup would dominate; low-overhead heap";
  } else if (choice.pb_mflops >= choice.column_mflops) {
    choice.algo = "pb";
    why << "cf " << choice.cf << ": derated outer bound " << choice.pb_mflops
        << " MFLOPS >= column " << choice.column_mflops
        << "; bandwidth-optimized pb";
  } else {
    choice.algo = column_algo;
    why << "cf " << choice.cf << ": derated column bound "
        << choice.column_mflops << " MFLOPS > outer " << choice.pb_mflops
        << "; Gustavson " << column_algo;
  }
  if (mask.present) {
    why << (mask.complement ? "; complemented mask (no flop cap)"
                            : "; mask caps output") ;
    if (capping) {
      why << " (cf_out " << choice.cf_out << ", wedge coverage " << coverage
          << ")";
    }
    if (expand_mask_credit > 1.0) {
      why << "; expand-mask credit " << expand_mask_credit
          << "x (kept density " << mask.kept_density << ")";
    }
  }
  choice.rationale = why.str();
  return choice;
}

}  // namespace pbs::model
