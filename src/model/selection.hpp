// Roofline-guided algorithm selection (paper Sec. II-C applied forward).
//
// The paper's model bounds what each SpGEMM family can attain from the
// compression factor cf alone: outer-product ESC (PB) is limited by Eq. 4,
// column/row Gustavson (hash, heap) by Eq. 3.  The *bounds* alone always
// favor the column family (its denominator is smaller), but the two
// families sit differently below their bounds: PB's phases all stream
// memory and sustain a large, cf-independent fraction of STREAM bandwidth
// (Figs. 6/7b/9b), while Gustavson kernels are latency-bound on irregular
// accumulator access at low cf and only approach their bound as rising cf
// buys accumulator reuse (Figs. 7a/9a: hash loses to PB at cf ≈ 1-2 and
// wins on high-compression inputs).  Derating each bound by that measured
// efficiency reproduces the paper's crossover:
//
//   perf_pb(cf)     = pb_efficiency · β · AI_outer(cf)
//   perf_column(cf) = cf/(cf + column_latency_penalty) · β · AI_column(cf)
//
// With the defaults below the crossover sits at cf ≈ 2.2.  β cancels in
// the comparison, so selection needs no STREAM run; it only scales the
// absolute MFLOPS estimates reported for telemetry.
//
// The compression factor is *estimated* before the multiplication ever
// runs (pb::pb_estimate_nnz_c's balls-into-bins model over the symbolic
// phase's per-row flop counts), which is what lets a plan select its
// algorithm at build time.  PB's Eq. 4 bound additionally charges the Cˆ
// write+read term the bytes the plan's tuple format actually moves
// (pb_tuple_bytes: 16 wide, 12 narrow, 8 key-only/f32 — see pb/tuple.hpp
// and pb::predict_tuple_format), so the compressed streams' higher bounds
// shift the crossover toward higher cf: with defaults it sits at cf ≈ 2.2
// at 16 B, ≈ 3.0 at 12 B and ≈ 7.7 at 8 B — a value-free (boolean)
// workload keeps PB competitive well past where a valued one switches to
// hash.
#pragma once

#include <span>
#include <string>

#include "common/types.hpp"
#include "model/roofline.hpp"

namespace pbs::model {

/// One measured prediction/achievement pair from a fingerprint-verified
/// execute: what the roofline model promised for the chosen algorithm at
/// the estimated cf, and what the run sustained.  The executor and plan
/// layers record these (unmasked "auto" runs only — a mask changes both
/// bounds, so masked samples would fold the mask term into the derating
/// constants); SelectionModel::calibrate refits from them.
struct PerfSample {
  std::string algo;  ///< the resolved algorithm ("pb", "hash", "heap")
  double cf = 0;     ///< estimated compression factor the choice used
  double predicted_mflops = 0;
  double achieved_mflops = 0;
  /// The derating constants in effect when the prediction was made —
  /// calibrate() inverts each prediction through THESE to recover the
  /// underated roofline estimate (samples from ops with customized or
  /// already-calibrated models would otherwise skew the fit).  0 = "use
  /// the calibrating model's own constants" (correct when all samples
  /// came from that model).
  double pb_efficiency = 0;
  double column_latency_penalty = 0;
};

/// What a calibrate() pass did: how many samples informed each family and
/// the constants in effect afterwards.  `changed` is false when no usable
/// samples existed (the model is left untouched).
struct CalibrationResult {
  int pb_samples = 0;
  int column_samples = 0;
  double pb_efficiency = 0;
  double column_latency_penalty = 0;
  bool changed = false;
};

/// β used for absolute performance estimates when the caller has no
/// measured STREAM figure.  The *choice* is β-independent.
inline constexpr double kDefaultBetaGbs = 20.0;

/// Tunables of the selection heuristic, exposed so benches and tests can
/// probe the crossover.  Defaults are calibrated against the paper's
/// single-socket figures (7, 9, 11).
struct SelectionModel {
  double beta_gbs = kDefaultBetaGbs;
  double bytes_per_nnz = kDefaultBytesPerNnz;

  /// Bytes each tuple of PB's expanded stream moves — the Cˆ term of
  /// Eq. 4.  16 for the wide AoS format; 12 when the plan's narrow SoA
  /// format engages; 8 for the key-only (value-free semirings) and
  /// narrow-f32 streams (pb/tuple.hpp; pb::predict_tuple_format tells a
  /// caller which to expect before any symbolic work).  Lowering it
  /// raises PB's bound, moving the pb/hash crossover toward higher cf.
  double pb_tuple_bytes = kDefaultBytesPerNnz;

  /// Fraction of its roofline bound PB sustains (its phases stream at
  /// near-STREAM bandwidth regardless of cf).
  double pb_efficiency = 0.85;

  /// Gustavson efficiency model cf/(cf + penalty): latency-bound hash
  /// probes at low cf, approaching the bound as reuse grows.
  double column_latency_penalty = 2.3;

  /// Below this flop count PB setup (binning, parallel regions)
  /// dominates any bandwidth advantage; pick the low-overhead heap.
  nnz_t small_flop_threshold = 32768;

  /// Refits the two per-family derating constants — pb_efficiency and
  /// column_latency_penalty — from recorded predicted-vs-achieved pairs,
  /// closing the telemetry loop: each sample's prediction is inverted
  /// through the *current* constants to recover the underated roofline
  /// estimate, the achieved figure gives that sample's observed derating,
  /// and the per-family median (robust to warm-up and noise outliers)
  /// becomes the new constant.  Families with no usable samples keep
  /// their current constant; samples with non-positive fields are
  /// skipped.  The defaults stay calibrated against the paper's figures;
  /// this replaces them with *this machine's* measured efficiencies
  /// (pbs_cli calibrate, or SpGemmExecutor's warmup refit).
  CalibrationResult calibrate(std::span<const PerfSample> samples);
};

/// What the selection model knows about a fused output mask (SpGemmOp).
/// Defaults describe "no mask", under which the masked bounds degenerate
/// exactly to Eq. 3/4 and the choice is unchanged.
struct MaskModel {
  bool present = false;
  bool complement = false;
  /// Masked wedge count / flop: the fraction of the flop whose output row
  /// has any mask entry.  A plain (non-complemented) mask lets the
  /// Gustavson row loops skip the other (1 − coverage) outright, while PB
  /// still expands every flop and filters at compress.  Complemented
  /// masks skip nothing (coverage stays 1).
  double coverage = 1.0;
  /// nnz(mask): cap on surviving output nonzeros for a plain mask.
  nnz_t mask_nnz = 0;
  /// Density of the *kept* side — nnz(mask)/cells, complement-flipped.
  double kept_density = 1.0;
  /// Whether PB's fused expand mask will engage for this op
  /// (pb::engage_expand_mask): its scatter loops then skip masked-out
  /// tuples, so PB's estimate is credited 1/kept_density.  Unset, PB keeps
  /// the post-compress drop and earns no credit.
  bool expand_skip = false;
};

/// The decision plus everything needed to explain it in telemetry.
struct AlgoChoice {
  std::string algo;          ///< "pb", "hash" or "heap"
  double cf = 0;             ///< the (estimated) compression factor used
  double cf_out = 0;         ///< flop per *surviving* output nonzero
                             ///< (== cf without a plain mask)
  double ai_outer = 0;       ///< Eq. 4 bound at cf (flops/byte)
  double ai_column = 0;      ///< Eq. 3 bound at cf
  double pb_mflops = 0;      ///< derated estimate at beta_gbs
  double column_mflops = 0;  ///< derated estimate at beta_gbs
  std::string rationale;     ///< one human-readable line for telemetry/CLI
};

/// Picks pb / hash / heap for a multiplication with estimated compression
/// factor `cf` and `flop` total multiplications.  `hash_available` is
/// false when the requested semiring rules hash out; the column family is
/// then represented by heap.  With a mask the bounds split into input
/// (cf) and output (cf_out, capped by nnz(mask)) terms and the column
/// family's estimate is credited the wedges its masked row loops skip —
/// so a dense mask reproduces the unmasked decision and a sparse mask
/// shifts the crossover toward the Gustavson kernels.
AlgoChoice select_algorithm(double cf, nnz_t flop, bool hash_available,
                            const SelectionModel& m = {},
                            const MaskModel& mask = {});

}  // namespace pbs::model
