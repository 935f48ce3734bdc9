#include "matrix/mstats.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"

namespace pbs::mtx {

namespace {

nnz_t row_flop(const CsrMatrix& a, const CsrMatrix& b, index_t r) {
  nnz_t f = 0;
  for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i)
    f += b.row_nnz(a.colids[i]);
  return f;
}

}  // namespace

void check_inner_dims(const char* fn, index_t a_ncols, index_t b_nrows) {
  if (a_ncols != b_nrows) {
    throw std::invalid_argument(std::string(fn) +
                                ": inner dimensions differ (" +
                                std::to_string(a_ncols) + " vs " +
                                std::to_string(b_nrows) + ")");
  }
}

nnz_t count_flops(const CscMatrix& a, const CsrMatrix& b) {
  check_inner_dims("count_flops", a.ncols, b.nrows);
  return parallel_reduce(
      Static{}, a.ncols, nnz_t{0},
      [&](nnz_t& flops, index_t i) noexcept {
        flops += a.col_nnz(i) * b.row_nnz(i);
      },
      std::plus<>{});
}

nnz_t count_flops(const CsrMatrix& a, const CsrMatrix& b) {
  check_inner_dims("count_flops", a.ncols, b.nrows);
  return parallel_reduce(
      Dynamic{1024}, a.nrows, nnz_t{0},
      [&](nnz_t& flops, index_t r) noexcept { flops += row_flop(a, b, r); },
      std::plus<>{});
}

std::vector<nnz_t> row_flops(const CsrMatrix& a, const CsrMatrix& b) {
  check_inner_dims("row_flops", a.ncols, b.nrows);
  std::vector<nnz_t> flops(static_cast<std::size_t>(a.nrows));
  parallel_for(Dynamic{1024}, a.nrows, [&](index_t r) noexcept {
    flops[static_cast<std::size_t>(r)] = row_flop(a, b, r);
  });
  return flops;
}

nnz_t symbolic_nnz(const CsrMatrix& a, const CsrMatrix& b) {
  check_inner_dims("symbolic_nnz", a.ncols, b.nrows);
  std::atomic<nnz_t> total{0};
  parallel_team([&](Team& team) {
    // Per-thread "seen" marker array: mark[c] == current row sentinel means
    // column c was already counted for this row.  Avoids clearing between
    // rows.
    std::vector<index_t> mark;
    nnz_t mine = 0;
    team.for_each(Dynamic{256}, a.nrows, [&](index_t r) {
      if (mark.empty()) mark.assign(static_cast<std::size_t>(b.ncols), -1);
      for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
        const index_t k = a.colids[i];
        for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
          const index_t c = b.colids[j];
          if (mark[c] != r) {
            mark[c] = r;
            ++mine;
          }
        }
      }
    });
    total.fetch_add(mine, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

DegreeStats degree_stats(const CsrMatrix& a) {
  DegreeStats s;
  if (a.nrows == 0) return s;

  std::vector<nnz_t> sorted(static_cast<std::size_t>(a.nrows));
  for (index_t r = 0; r < a.nrows; ++r) sorted[r] = a.row_nnz(r);
  std::sort(sorted.begin(), sorted.end());
  s.min_degree = sorted.front();
  s.max_degree = sorted.back();
  s.mean_degree = static_cast<double>(a.nnz()) / a.nrows;
  s.p99_degree =
      sorted[static_cast<std::size_t>(0.99 * (sorted.size() - 1))];

  // Row flop of A·A: Σ_{k in A(r,:)} deg(k).
  const std::vector<nnz_t> flops = row_flops(a, a);
  const nnz_t total_flop =
      std::accumulate(flops.begin(), flops.end(), nnz_t{0});
  const nnz_t max_flop = *std::max_element(flops.begin(), flops.end());
  const double mean_flop =
      a.nrows > 0 ? static_cast<double>(total_flop) / a.nrows : 0.0;
  s.flop_imbalance = mean_flop > 0 ? static_cast<double>(max_flop) / mean_flop : 0.0;
  return s;
}

SquareStats square_stats(const CsrMatrix& a) {
  SquareStats s;
  s.n = a.nrows;
  s.nnz = a.nnz();
  s.d = a.avg_degree();
  s.flops = count_flops(a, a);
  s.nnz_c = symbolic_nnz(a, a);
  s.cf = s.nnz_c == 0 ? 0.0 : static_cast<double>(s.flops) / static_cast<double>(s.nnz_c);
  return s;
}

}  // namespace pbs::mtx
