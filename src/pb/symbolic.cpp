#include "pb/symbolic.hpp"

#include <cassert>
#include <cmath>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "common/cache_info.hpp"
#include "common/numa.hpp"
#include "common/parallel.hpp"
#include "matrix/mstats.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

namespace {

// The balls-into-bins estimate summed over rows: row r's flop_r products
// fall into ncols column slots, E[distinct] ≈ ncols·(1 − exp(−flop_r/ncols)),
// capped at the row's mask support when a plain mask is given.
nnz_t estimate_rows(std::span<const nnz_t> row_flops, index_t ncols_i,
                    const mtx::CsrMatrix* mask) {
  const double ncols = static_cast<double>(ncols_i);
  if (ncols <= 0) return 0;
  const auto nrows = static_cast<std::int64_t>(row_flops.size());
  const double estimate = parallel_reduce(
      Static{}, nrows, 0.0,
      [&](double& acc, std::int64_t r) noexcept {
        const auto f =
            static_cast<double>(row_flops[static_cast<std::size_t>(r)]);
        if (f <= 0) return;
        double e = ncols * -std::expm1(-f / ncols);
        if (mask != nullptr) {
          const auto cap =
              static_cast<double>(mask->row_nnz(static_cast<index_t>(r)));
          if (cap <= 0) return;
          e = std::min(e, cap);
        }
        acc += e;
      },
      std::plus<>{});
  return static_cast<nnz_t>(estimate + 0.5);
}

}  // namespace

nnz_t pb_estimate_nnz_c(const mtx::CscMatrix& a, const mtx::CsrMatrix& b) {
  mtx::check_inner_dims("pb_estimate_nnz_c", a.ncols, b.nrows);
  // Row flops from the column view: a serial scatter over A's row ids
  // (the executor, holding A in CSR, uses the row-wise mtx::row_flops).
  std::vector<nnz_t> rf(static_cast<std::size_t>(a.nrows), 0);
  for (index_t i = 0; i < a.ncols; ++i) {
    const nnz_t weight = b.row_nnz(i);
    for (const index_t r : a.col_rows(i))
      rf[static_cast<std::size_t>(r)] += weight;
  }
  return estimate_rows(rf, b.ncols, nullptr);
}

nnz_t pb_estimate_nnz_c_masked(std::span<const nnz_t> row_flops,
                               const mtx::CsrMatrix& mask) {
  if (row_flops.size() != static_cast<std::size_t>(mask.nrows)) {
    throw std::invalid_argument(
        "pb_estimate_nnz_c_masked: mask row count (" +
        std::to_string(mask.nrows) + ") differs from the product's (" +
        std::to_string(row_flops.size()) + ")");
  }
  return estimate_rows(row_flops, mask.ncols, &mask);
}

nnz_t pb_estimate_nnz_c(std::span<const nnz_t> row_flops, index_t ncols) {
  return estimate_rows(row_flops, ncols, nullptr);
}

namespace {

// Per-bin flop histogram: every nonzero A(r, i) contributes nnz(B(i,:))
// tuples to row r's bin.  One histogram per thread, summed in thread order.
std::vector<nnz_t> bin_histogram(const mtx::CscMatrix& a,
                                 const mtx::CsrMatrix& b,
                                 const BinLayout& layout) {
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  std::vector<nnz_t> total = parallel_reduce(
      Guided{}, a.ncols, std::vector<nnz_t>{},
      [&](std::vector<nnz_t>& hist, index_t i) {
        const nnz_t weight = b.row_nnz(i);
        if (weight == 0) return;
        if (hist.empty()) hist.assign(nbins, 0);
        for (const index_t r : a.col_rows(i)) {
          hist[static_cast<std::size_t>(layout.binid(r))] += weight;
        }
      },
      [](std::vector<nnz_t> x, std::vector<nnz_t> y) {
        if (x.empty()) return y;
        for (std::size_t bin = 0; bin < y.size(); ++bin) x[bin] += y[bin];
        return x;
      });
  total.resize(nbins, 0);  // no thread saw a nonzero weight
  return total;
}

// Format selection.  The narrow formats fit when every bin's varying key
// bits pack into 32; key-only carries the full 64-bit global key, so it
// fits any geometry but is only legal when the caller asserted the
// semiring is value-free (cfg.value_free).  Requests are preferences:
// an illegal or unfitting request falls back (keyonly -> the kAuto
// choice, narrow/f32 -> wide); the CLI enforces strictness for explicit
// user requests before planning.
TupleFormat pick_format(const BinLayout& layout, index_t nrows,
                        int col_bits, const PbConfig& cfg) {
  const bool fits = layout.local_row_bits(nrows) + col_bits <= 32;
  switch (cfg.format) {
    case FormatPolicy::kWide:
      return TupleFormat::kWide;
    case FormatPolicy::kNarrow:
      return fits ? TupleFormat::kNarrow : TupleFormat::kWide;
    case FormatPolicy::kF32:
      return fits ? TupleFormat::kNarrowF32 : TupleFormat::kWide;
    case FormatPolicy::kKeyOnly:
    case FormatPolicy::kAuto:
      if (cfg.value_free) return TupleFormat::kKeyOnly;
      return fits ? TupleFormat::kNarrow : TupleFormat::kWide;
  }
  return TupleFormat::kWide;
}

// Value-freeness promises presence ⇒ the semiring's present-value, which
// only holds when no operand stores an explicit zero: a stored 0.0 is
// bool-false, its products must surface as stored zeros (the library
// keeps exact-zero entries structurally), so the value stream cannot be
// dropped.  One O(nnz) scan per operand guards the key-only choice.
bool has_stored_zero(std::span<const value_t> vals) {
  return parallel_reduce(
      Static{}, vals.size(), false,
      [&](bool& found, std::size_t i) noexcept {
        found = found || vals[i] == 0.0;
      },
      [](bool x, bool y) { return x || y; });
}

}  // namespace

SymbolicResult pb_symbolic(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                           const PbConfig& cfg, const SymbolicHints& hints) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("pb_spgemm: inner dimensions differ (" +
                                std::to_string(a.ncols) + " vs " +
                                std::to_string(b.nrows) + ")");
  }

  SymbolicResult out;
  out.flop = hints.flop >= 0 ? hints.flop : mtx::count_flops(a, b);

  const std::size_t l2 = cfg.l2_bytes != 0 ? cfg.l2_bytes : cache_info().l2_bytes;
  const int target = cfg.nbins > 0 ? cfg.nbins : auto_nbins(out.flop, l2);

  out.layout = make_range_layout(a.nrows, target);

  out.col_bits = ceil_log2(static_cast<std::uint64_t>(b.ncols));
  // Key-only is only reachable under cfg.value_free, and the assertion is
  // about the *semiring*; the operands must also be free of explicit
  // stored zeros (see has_stored_zero) — downgrade the flag here, where
  // the values are in hand (predict_tuple_format has no operands and
  // predicts the common no-stored-zero case).
  PbConfig ecfg = cfg;
  if (ecfg.value_free &&
      (ecfg.format == FormatPolicy::kAuto ||
       ecfg.format == FormatPolicy::kKeyOnly) &&
      (has_stored_zero(a.vals) || has_stored_zero(b.vals))) {
    ecfg.value_free = false;
  }
  out.format = pick_format(out.layout, a.nrows, out.col_bits, ecfg);

  const std::vector<nnz_t> counts = bin_histogram(a, b, out.layout);
  out.bin_fill = counts;

  // Region layout: pad every bin to a whole number of its format's 64 B
  // key lines (4 wide tuples, 16 narrow or f32 keys, 8 key-only keys) so
  // full local-bin flushes are line aligned on every lane (see
  // SymbolicResult).  Key-only has no value lane at all, so the byte pool
  // sized from these offsets charges it 8 B/tuple.
  const nnz_t pad =
      visit(out.format, [](auto s) { return decltype(s)::kLineTuples; });
  out.bin_offsets.assign(static_cast<std::size_t>(out.layout.nbins) + 1, 0);
  nnz_t cursor = 0;
  nnz_t total_fill = 0;
  for (int bin = 0; bin < out.layout.nbins; ++bin) {
    out.bin_offsets[static_cast<std::size_t>(bin)] = cursor;
    cursor += (counts[static_cast<std::size_t>(bin)] + pad - 1) / pad * pad;
    total_fill += counts[static_cast<std::size_t>(bin)];
  }
  out.bin_offsets[static_cast<std::size_t>(out.layout.nbins)] = cursor;
  assert(total_fill == out.flop);
  (void)total_fill;

  // Bin -> home-node map: contiguous flop-balanced partition over the
  // machine's NUMA nodes.  Contiguity keeps each node's share of the
  // tuple pool one address range (bins are row-ordered, so it is also a
  // row partition); balancing by fill gives every node roughly
  // flop/nnodes tuples to serve from local memory.
  const int nnodes = numa_topology().nnodes;
  out.numa_nodes = 1;
  out.bin_home.assign(static_cast<std::size_t>(out.layout.nbins), 0);
  if (nnodes > 1 && out.flop > 0) {
    const double share =
        static_cast<double>(out.flop) / static_cast<double>(nnodes);
    nnz_t seen = 0;
    for (int bin = 0; bin < out.layout.nbins; ++bin) {
      const int node = std::min(
          nnodes - 1, static_cast<int>(static_cast<double>(seen) / share));
      out.bin_home[static_cast<std::size_t>(bin)] = node;
      out.numa_nodes = std::max(out.numa_nodes, node + 1);
      seen += counts[static_cast<std::size_t>(bin)];
    }
  }

  // Traffic model: the two pointer arrays (Algorithm 3 streams them) plus
  // one pass over A's row-id array for the bin histogram.
  out.modeled_bytes =
      static_cast<double>(a.ncols + 1) * sizeof(nnz_t) +
      static_cast<double>(b.nrows + 1) * sizeof(nnz_t) +
      static_cast<double>(a.nnz()) * sizeof(index_t);
  return out;
}

TupleFormat predict_tuple_format(index_t a_nrows, index_t b_ncols, nnz_t flop,
                                 const PbConfig& cfg) {
  if (cfg.format == FormatPolicy::kWide) return TupleFormat::kWide;
  const std::size_t l2 =
      cfg.l2_bytes != 0 ? cfg.l2_bytes : cache_info().l2_bytes;
  const int target = cfg.nbins > 0 ? cfg.nbins : auto_nbins(flop, l2);
  // The layout is structure-free, so the prediction builds the real one.
  const BinLayout layout = make_range_layout(a_nrows, target);
  const int col_bits = ceil_log2(static_cast<std::uint64_t>(b_ncols));
  return pick_format(layout, a_nrows, col_bits, cfg);
}

}  // namespace pbs::pb
