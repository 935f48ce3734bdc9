// Shared two-phase driver for HashSpGEMM and HashVecSpGEMM, generalized
// over a semiring and an optional fused output mask.
//
// Phase 1 (symbolic): per row, insert the product's column ids into a hash
// set to count nnz(C(r,:)) exactly; prefix-sum gives rowptr and one exact
// allocation — the structure of Nagasaka et al. [12].
// Phase 2 (numeric): per row, accumulate into the hash table (S::mul
// products, S::add keyed-insert combine), extract, sort by column
// (canonical CSR), write in place.
//
// With an active mask (pb::MaskSpec), both phases skip columns outside
// (or, complemented, inside) the mask row's pattern through the shared
// MaskStamp (spgemm/masked.hpp): a probe costs O(1) and rows whose plain
// mask row is empty are skipped outright.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/prefix_sum.hpp"
#include "matrix/csr.hpp"
#include "matrix/mstats.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs::detail {

/// kMasked = mask.active() (detail::dispatch_mask): the unmasked
/// instantiation carries no mask test.
template <typename S, typename Accumulator, bool kMasked = false>
mtx::CsrMatrix hash_spgemm_impl(const SpGemmProblem& p,
                                const pb::MaskSpec& mask = {}) {
  const mtx::CsrMatrix& a = p.a_csr;
  const mtx::CsrMatrix& b = p.b_csr;

  mtx::CsrMatrix out(a.nrows, b.ncols);

  // Upper bound per row for table sizing: the row flop, which the symbolic
  // pass caps at ncols — and at the mask row's size for a plain mask,
  // which also zeroes out maskless rows.
  std::vector<nnz_t> row_upper = mtx::row_flops(a, b);

  // ---- symbolic: exact nnz per output row ----
  parallel_team([&](Team& team) {
    Accumulator acc;
    MaskStamp stamp(mask);
    team.for_each(Dynamic{256}, a.nrows, [&](index_t r) {
      nnz_t& upper = row_upper[r];
      upper = std::min<nnz_t>(upper, b.ncols);
      if (kMasked && !mask.complement)
        upper = std::min<nnz_t>(upper, mask.csr->row_nnz(r));
      if (upper == 0 || (kMasked && !stamp.begin_row(r))) return;  // count 0
      acc.reset(upper);
      for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
        const index_t k = a.colids[i];
        for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
          const index_t c = b.colids[j];
          if (kMasked && stamp.skip(c)) continue;
          acc.insert(c);
        }
      }
      out.rowptr[static_cast<std::size_t>(r) + 1] = acc.size();
    });
  });

  const auto total = static_cast<std::size_t>(counts_to_rowptr(
      out.rowptr.data(), static_cast<std::size_t>(a.nrows)));
  out.colids.resize(total);
  out.vals.resize(total);

  // ---- numeric: accumulate, extract, sort, write in place ----
  parallel_team([&](Team& team) {
    Accumulator acc;
    MaskStamp stamp(mask);
    std::vector<std::pair<index_t, value_t>> entries;
    team.for_each(Dynamic{256}, a.nrows, [&](index_t r) {
      const nnz_t lo = out.rowptr[r];
      const nnz_t hi = out.rowptr[static_cast<std::size_t>(r) + 1];
      if (lo == hi || (kMasked && !stamp.begin_row(r))) return;
      acc.reset(row_upper[r]);
      for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
        const index_t k = a.colids[i];
        const value_t av = a.vals[i];
        for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
          const index_t c = b.colids[j];
          if (kMasked && stamp.skip(c)) continue;
          acc.template accumulate<S>(c, S::mul(av, b.vals[j]));
        }
      }
      entries.clear();
      acc.extract(std::back_inserter(entries));
      std::sort(entries.begin(), entries.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      for (std::size_t i = 0; i < entries.size(); ++i) {
        out.colids[static_cast<std::size_t>(lo) + i] = entries[i].first;
        out.vals[static_cast<std::size_t>(lo) + i] = entries[i].second;
      }
    });
  });

  return out;
}

}  // namespace pbs::detail
