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

#include <omp.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "matrix/csr.hpp"
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

  // Upper bound per row (row flop, capped at ncols — and at the mask row's
  // size for a plain mask, which also zeroes out maskless rows) for table
  // sizing.
  std::vector<nnz_t> row_upper(static_cast<std::size_t>(a.nrows), 0);
#pragma omp parallel for schedule(dynamic, 1024)
  for (index_t r = 0; r < a.nrows; ++r) {
    nnz_t f = 0;
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i)
      f += b.row_nnz(a.colids[i]);
    f = std::min<nnz_t>(f, b.ncols);
    if (kMasked && !mask.complement) {
      f = std::min<nnz_t>(f, mask.csr->row_nnz(r));
    }
    row_upper[r] = f;
  }

  // ---- symbolic: exact nnz per output row ----
#pragma omp parallel
  {
    Accumulator acc;
    MaskStamp stamp(mask);
#pragma omp for schedule(dynamic, 256)
    for (index_t r = 0; r < a.nrows; ++r) {
      if (row_upper[r] == 0 || (kMasked && !stamp.begin_row(r))) {
        out.rowptr[static_cast<std::size_t>(r) + 1] = 0;
        continue;
      }
      acc.reset(row_upper[r]);
      for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
        const index_t k = a.colids[i];
        for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
          const index_t c = b.colids[j];
          if (kMasked && stamp.skip(c)) continue;
          acc.insert(c);
        }
      }
      out.rowptr[static_cast<std::size_t>(r) + 1] = acc.size();
    }
  }

  // Counts -> row pointers (inclusive running sum; rowptr[0] == 0 already).
  for (index_t r = 0; r < a.nrows; ++r)
    out.rowptr[static_cast<std::size_t>(r) + 1] += out.rowptr[r];

  const auto total = static_cast<std::size_t>(out.rowptr.back());
  out.colids.resize(total);
  out.vals.resize(total);

  // ---- numeric: accumulate, extract, sort, write in place ----
#pragma omp parallel
  {
    Accumulator acc;
    MaskStamp stamp(mask);
    std::vector<std::pair<index_t, value_t>> entries;
#pragma omp for schedule(dynamic, 256)
    for (index_t r = 0; r < a.nrows; ++r) {
      const nnz_t lo = out.rowptr[r];
      const nnz_t hi = out.rowptr[static_cast<std::size_t>(r) + 1];
      if (lo == hi || (kMasked && !stamp.begin_row(r))) continue;
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
    }
  }

  return out;
}

}  // namespace pbs::detail
