// Template definition of the plan-execute stage (see plan.hpp).  Included
// by plan.cpp, which explicitly instantiates pb_execute<S> for the
// built-in semirings — include this header directly only to instantiate a
// custom semiring.
#pragma once

#include <stdexcept>
#include <vector>

#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "pb/expand.hpp"
#include "pb/output.hpp"
#include "pb/plan.hpp"
#include "pb/sort_compress.hpp"

namespace pbs::pb {

namespace detail {

/// Epilogue preconditions (see PbEpilogue's contract in pb_config.hpp).
inline void validate_epilogue(const PbEpilogue& epi, TupleFormat fmt,
                              index_t nrows, index_t ncols) {
  if (epi.accumulate != nullptr && epi.post_op.active()) {
    throw std::invalid_argument(
        "pb_execute: accumulate and post-op epilogues are mutually "
        "exclusive (prune/top-k over a merged C is ambiguous; run them as "
        "separate multiplies)");
  }
  if (epi.accumulate != nullptr && (epi.accumulate->nrows != nrows ||
                                    epi.accumulate->ncols != ncols)) {
    throw std::invalid_argument(
        "pb_execute: accumulate operand shape does not match the product");
  }
  if (epi.post_op.active() &&
      !visit(fmt, [](auto s) { return decltype(s)::kHasValues; })) {
    throw std::invalid_argument(
        "pb_execute: elementwise post-ops need a valued tuple stream; the "
        "key-only format carries no values (value-free semiring)");
  }
}

}  // namespace detail

template <typename S>
PbResult pb_execute(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                    const PbPlan& plan, PbWorkspace& workspace,
                    bool check_fingerprint, const MaskSpec& mask,
                    const CancelToken* cancel, const PbEpilogue& epi) {
  if (check_fingerprint && !plan.matches(a, b)) {
    throw std::invalid_argument(
        "pb_execute: operands do not match the plan's structure fingerprint "
        "(dims/nnz/flop changed); rebuild the plan with pb_plan_build");
  }
  mask.check_shape(a.nrows, b.ncols, "pb_execute");
  detail::validate_epilogue(epi, plan.sym.format, a.nrows, b.ncols);
  throw_if_stopped(cancel);

  // Run-local config: the plan's captured config plus this run's token,
  // threaded into expand (whose entry points read cfg.cancel).
  PbConfig run_cfg = plan.cfg;
  run_cfg.cancel = cancel;

  const SymbolicResult& sym = plan.sym;
  const int nbins = sym.layout.nbins;
  PbResult result;
  PbTelemetry& tm = result.stats;
  Timer timer;

  // Analysis was paid at plan-build time: tm.symbolic stays zero here
  // (plan.symbolic records the build cost; pb_spgemm folds it back in for
  // the fused build+execute path).
  tm.flop = sym.flop;
  tm.nbins = nbins;
  // Every bin is one power-of-two row range of this width.
  tm.rows_per_bin = sym.layout.rows_per_bin();
  tm.format = sym.format;
  // The `b` each tuple of this run's stream costs — the per-format Table
  // III accounting below runs on it.
  const double bpt = tm.tuple_bytes();

  // Fused expand-time mask (per run — the mask pattern is run state).
  // When it engages, the scatter loops skip masked-out tuples outright,
  // bins hold fewer tuples than the symbolic fill marks, and the
  // compress-stage filter has nothing left to drop.
  const bool expand_masked =
      engage_expand_mask(mask, run_cfg, a.nrows, b.ncols);
  const MaskSpec emask = expand_masked ? mask : MaskSpec{};
  std::vector<nnz_t> actual_fill_vec;
  nnz_t* actual_fill = nullptr;
  if (expand_masked) {
    actual_fill_vec.assign(static_cast<std::size_t>(nbins), 0);
    actual_fill = actual_fill_vec.data();
  }

  // Every phase below runs on the plan's stream policy (pb/tuple.hpp).
  visit(sym.format, [&]<typename St>(St) {
    // ---- expand (S::mul; key-only skips the multiply entirely) ----
    FaultInjector::at(FaultPoint::kExpand);
    timer.reset();
    const St stream =
        workspace.acquire<St>(static_cast<std::size_t>(sym.bin_offsets.back()));
    workspace.place_bins(sym.bin_offsets, sym.bin_home, sym.format);
    pb_expand<S>(a, b, sym, run_cfg, stream, emask, actual_fill);
    throw_if_stopped(cancel);
    tm.expand.seconds = timer.elapsed_s();
    // Tuples this run actually generated: flop, minus whatever the fused
    // expand mask skipped in the scatter loops.
    nnz_t generated = sym.flop;
    if (expand_masked) {
      generated = 0;
      for (const nnz_t f : actual_fill_vec) generated += f;
      tm.mask_skipped_expand = sym.flop - generated;
      tm.expand_masked = true;
    }
    // Table III: read both inputs once (at the paper's wide COO cost), write
    // the generated tuples at the stream format's cost (skipped tuples are
    // never multiplied or written — the point of expand masking).
    tm.expand.bytes =
        static_cast<double>(kBytesPerTuple) *
            (static_cast<double>(a.nnz()) + static_cast<double>(b.nnz())) +
        bpt * static_cast<double>(generated);

    // ---- sort + compress (fused per bin, timed separately; S::add) ----
    // The fused mask rides here too — unless expand already applied it, in
    // which case every surviving tuple is in-mask by construction and the
    // filter is skipped.  The elementwise post-op (epi.post_op) runs in the
    // same per-bin filter stage while the bin is cache-hot.
    FaultInjector::at(FaultPoint::kSortCompress);
    timer.reset();
    const std::span<const nnz_t> fills =
        expand_masked ? std::span<const nnz_t>(actual_fill_vec)
                      : std::span<const nnz_t>(sym.bin_fill);
    const MaskSpec cmask = expand_masked ? MaskSpec{} : mask;
    const SortCompressResult sc = pb_sort_compress<S>(
        stream, sym.bin_offsets, fills, nbins, &workspace, cmask, &sym.layout,
        sym.col_bits, cancel, epi.post_op);
    throw_if_stopped(cancel);
    const double sc_wall = timer.elapsed_s();
    // Attribute the fused loop's wall time proportionally to the measured
    // per-thread busy times (their ratio is exact; the split of idle time is
    // the approximation).
    const double busy = sc.sort_seconds + sc.compress_seconds;
    const double sort_share = busy > 0 ? sc.sort_seconds / busy : 0.5;
    tm.sort.seconds = sc_wall * sort_share;
    tm.compress.seconds = sc_wall * (1.0 - sort_share);
    // Table III: the sort streams the bin in (shuffles are in-cache); the
    // compress writes every merged tuple — including the ones the mask and
    // post-op then discard in-cache (reads are in-cache).
    tm.sort.bytes = bpt * static_cast<double>(generated);
    nnz_t nnz_c = 0;
    for (const nnz_t m : sc.merged) nnz_c += m;
    tm.nnz_c = nnz_c;
    tm.mask_dropped = sc.mask_dropped;
    tm.post_dropped = sc.post_dropped;
    tm.compress.bytes =
        bpt * static_cast<double>(nnz_c + sc.mask_dropped + sc.post_dropped);

    // ---- convert to CSR (semiring-independent; key-only synthesizes the
    // present-value, f32 widens back to the library's f64 CSR).  With an
    // accumulate epilogue the conversion union-merges C's rows per bin
    // instead (pb/output.hpp) — the post-pass never runs. ----
    FaultInjector::at(FaultPoint::kConvert);
    timer.reset();
    result.c =
        epi.accumulate != nullptr
            ? pb_accumulate_csr<S>(stream, sym.bin_offsets, sc.merged,
                                   *epi.accumulate, sym.layout, sym.col_bits,
                                   a.nrows, b.ncols, cancel)
            : pb_build_csr(stream, sym.bin_offsets, sc.merged, &sym.layout,
                           sym.col_bits, a.nrows, b.ncols, cancel);
    throw_if_stopped(cancel);
    tm.convert.seconds = timer.elapsed_s();
    // Reads the merged tuples, writes colids+vals and two rowptr passes;
    // an accumulate additionally streams C_old in and writes the union.
    tm.convert.bytes =
        (bpt + static_cast<double>(sizeof(index_t) + sizeof(value_t))) *
            static_cast<double>(nnz_c) +
        2.0 * static_cast<double>(sizeof(nnz_t)) * static_cast<double>(a.nrows);
    if (epi.accumulate != nullptr) {
      const auto entry =
          static_cast<double>(sizeof(index_t) + sizeof(value_t));
      tm.convert.bytes +=
          entry * static_cast<double>(epi.accumulate->nnz()) +  // C_old in
          entry * static_cast<double>(result.c.nnz() - nnz_c);  // extra out
    }
  });

  return result;
}

}  // namespace pbs::pb
