#include "pb/binning.hpp"

#include <algorithm>
#include <cassert>

#include "pb/tuple.hpp"

namespace pbs::pb {

const char* to_string(FormatPolicy p) {
  switch (p) {
    case FormatPolicy::kAuto: return "auto";
    case FormatPolicy::kWide: return "wide";
    case FormatPolicy::kNarrow: return "narrow";
    case FormatPolicy::kKeyOnly: return "keyonly";
    case FormatPolicy::kF32: return "f32";
  }
  return "?";
}

const char* to_string(ExpandMaskMode m) {
  switch (m) {
    case ExpandMaskMode::kAuto: return "auto";
    case ExpandMaskMode::kOff: return "off";
    case ExpandMaskMode::kOn: return "on";
  }
  return "?";
}

const char* to_string(TupleFormat f) {
  switch (f) {
    case TupleFormat::kWide: return "wide";
    case TupleFormat::kNarrow: return "narrow";
    case TupleFormat::kKeyOnly: return "keyonly";
    case TupleFormat::kNarrowF32: return "f32";
  }
  return "?";
}

double PbTelemetry::tuple_bytes() const {
  return static_cast<double>(bytes_per_tuple(format));
}

int BinLayout::local_row_bits(index_t nrows) const {
  if (nrows <= 0) return 0;
  // Bins except possibly the last are full; the widest local row is
  // bounded by the bin width.  Unsigned arithmetic: shift can be 31.
  const auto max_local =
      static_cast<index_t>((std::uint32_t{1} << shift) - 1u);
  return ceil_log2(static_cast<std::uint64_t>(max_local) + 1);
}

int auto_nbins(nnz_t flop, std::size_t l2_bytes) {
  if (flop <= 0) return 1;
  const auto bin_budget = static_cast<nnz_t>(l2_bytes / 2);
  const nnz_t bytes = flop * static_cast<nnz_t>(sizeof(Tuple));
  const nnz_t want = (bytes + bin_budget - 1) / std::max<nnz_t>(bin_budget, 1);
  const auto pow2 = static_cast<nnz_t>(next_pow2(static_cast<std::uint64_t>(
      std::clamp<nnz_t>(want, 1, nnz_t{1} << 16))));
  return static_cast<int>(pow2);
}

BinLayout make_range_layout(index_t nrows, int nbins_target) {
  assert(nbins_target >= 1);
  BinLayout layout;
  // Power-of-two rows per bin, so binid is a shift and local row bits are
  // exactly the low `shift` bits of the rowid.
  const auto rows = std::max<index_t>(nrows, 1);
  const auto per_bin = static_cast<index_t>(next_pow2(static_cast<std::uint64_t>(
      (rows + nbins_target - 1) / nbins_target)));
  layout.shift = ceil_log2(static_cast<std::uint64_t>(per_bin));
  // next_pow2 result is exact, so ceil_log2 is its log2.
  layout.nbins = static_cast<int>((rows + per_bin - 1) / per_bin);
  return layout;
}

}  // namespace pbs::pb
