#include "pb/partitioned.hpp"

#include <algorithm>
#include <stdexcept>

namespace pbs::pb {

mtx::CscMatrix slice_rows(const mtx::CscMatrix& a, index_t row_lo,
                          index_t row_hi) {
  mtx::CscMatrix out(row_hi - row_lo, a.ncols);
  // Count per column first for exact allocation.
  for (index_t c = 0; c < a.ncols; ++c) {
    nnz_t count = 0;
    for (const index_t r : a.col_rows(c)) {
      if (r >= row_lo && r < row_hi) ++count;
    }
    out.colptr[static_cast<std::size_t>(c) + 1] =
        out.colptr[c] + count;
  }
  out.rowids.resize(static_cast<std::size_t>(out.colptr.back()));
  out.vals.resize(static_cast<std::size_t>(out.colptr.back()));
  for (index_t c = 0; c < a.ncols; ++c) {
    nnz_t pos = out.colptr[c];
    const auto rows = a.col_rows(c);
    const auto vals = a.col_vals(c);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] >= row_lo && rows[i] < row_hi) {
        out.rowids[static_cast<std::size_t>(pos)] = rows[i] - row_lo;
        out.vals[static_cast<std::size_t>(pos)] = vals[i];
        ++pos;
      }
    }
  }
  return out;
}

mtx::CsrMatrix slice_rows(const mtx::CsrMatrix& a, index_t row_lo,
                          index_t row_hi) {
  mtx::CsrMatrix out(row_hi - row_lo, a.ncols);
  const nnz_t base = a.rowptr[row_lo];
  for (index_t r = row_lo; r < row_hi; ++r) {
    out.rowptr[static_cast<std::size_t>(r - row_lo) + 1] =
        a.rowptr[static_cast<std::size_t>(r) + 1] - base;
  }
  const auto lo = static_cast<std::size_t>(base);
  const auto n = static_cast<std::size_t>(a.rowptr[row_hi] - base);
  out.colids.assign(a.colids.begin() + lo, a.colids.begin() + lo + n);
  out.vals.assign(a.vals.begin() + lo, a.vals.begin() + lo + n);
  return out;
}

mtx::CsrMatrix slice_cols(const mtx::CsrMatrix& a, index_t col_lo,
                          index_t col_hi) {
  mtx::CsrMatrix out(a.nrows, col_hi - col_lo);
  // Columns are sorted within each row, so the kept entries of row r form
  // one contiguous run found by binary search.
  std::vector<nnz_t> lo(static_cast<std::size_t>(a.nrows));
  for (index_t r = 0; r < a.nrows; ++r) {
    const auto cols = a.row_cols(r);
    const auto first =
        std::lower_bound(cols.begin(), cols.end(), col_lo) - cols.begin();
    const auto last =
        std::lower_bound(cols.begin(), cols.end(), col_hi) - cols.begin();
    lo[static_cast<std::size_t>(r)] = a.rowptr[r] + first;
    out.rowptr[static_cast<std::size_t>(r) + 1] =
        out.rowptr[r] + (last - first);
  }
  out.colids.resize(static_cast<std::size_t>(out.rowptr.back()));
  out.vals.resize(static_cast<std::size_t>(out.rowptr.back()));
  for (index_t r = 0; r < a.nrows; ++r) {
    const auto src = static_cast<std::size_t>(lo[static_cast<std::size_t>(r)]);
    const auto dst = static_cast<std::size_t>(out.rowptr[r]);
    const auto n = static_cast<std::size_t>(out.row_nnz(r));
    for (std::size_t i = 0; i < n; ++i) {
      out.colids[dst + i] = a.colids[src + i] - col_lo;
      out.vals[dst + i] = a.vals[src + i];
    }
  }
  return out;
}

std::vector<index_t> split_ranges(index_t n, int k) {
  if (k < 1) {
    throw std::invalid_argument("split_ranges: k must be >= 1");
  }
  std::vector<index_t> bounds(static_cast<std::size_t>(k) + 1);
  const index_t per = (n + k - 1) / std::max(k, 1);
  for (int i = 0; i <= k; ++i) {
    bounds[static_cast<std::size_t>(i)] =
        std::min<index_t>(n, static_cast<index_t>(i) * per);
  }
  return bounds;
}

namespace {

// Validates and clamps nparts to the row count.
int checked_nparts(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   int nparts) {
  if (nparts < 1) {
    throw std::invalid_argument("pb_spgemm_partitioned: nparts must be >= 1");
  }
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("pb_spgemm_partitioned: dimensions differ");
  }
  return std::min<int>(nparts, std::max<index_t>(a.nrows, 1));
}

}  // namespace

mtx::CsrMatrix stack_row_blocks(const std::vector<mtx::CsrMatrix>& pieces,
                                index_t nrows, index_t ncols) {
  mtx::CsrMatrix c;
  c.nrows = nrows;
  c.ncols = ncols;
  c.rowptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  nnz_t total = 0;
  for (const mtx::CsrMatrix& piece : pieces) total += piece.nnz();
  c.colids.reserve(static_cast<std::size_t>(total));
  c.vals.reserve(static_cast<std::size_t>(total));

  index_t row_base = 0;
  nnz_t nnz_base = 0;
  for (const mtx::CsrMatrix& piece : pieces) {
    for (index_t r = 0; r < piece.nrows; ++r) {
      c.rowptr[static_cast<std::size_t>(row_base + r) + 1] =
          nnz_base + piece.rowptr[static_cast<std::size_t>(r) + 1];
    }
    c.colids.insert(c.colids.end(), piece.colids.begin(), piece.colids.end());
    c.vals.insert(c.vals.end(), piece.vals.begin(), piece.vals.end());
    row_base += piece.nrows;
    nnz_base += piece.nnz();
  }
  // Rows past the last part (possible when nparts > nrows) keep the running
  // total so rowptr stays monotone.
  for (std::size_t r = static_cast<std::size_t>(row_base) + 1;
       r < c.rowptr.size(); ++r) {
    c.rowptr[r] = nnz_base;
  }
  return c;
}

PartitionedResult pb_spgemm_partitioned(const mtx::CscMatrix& a,
                                        const mtx::CsrMatrix& b, int nparts,
                                        const PbConfig& cfg) {
  nparts = checked_nparts(a, b, nparts);

  // Slice, analyze, execute and free one part at a time through the
  // plan-build/execute split, so no more than one row slice of A is held
  // at once.  The in-line analysis lands in each part's symbolic stats,
  // like pb_spgemm.
  PartitionedResult out;
  out.parts.reserve(static_cast<std::size_t>(nparts));
  std::vector<mtx::CsrMatrix> pieces;
  pieces.reserve(static_cast<std::size_t>(nparts));
  PbWorkspace workspace;  // shared: parts run one after another

  const std::vector<index_t> bounds = split_ranges(a.nrows, nparts);
  for (int part = 0; part < nparts; ++part) {
    const index_t lo = bounds[static_cast<std::size_t>(part)];
    const index_t hi = bounds[static_cast<std::size_t>(part) + 1];
    const mtx::CscMatrix a_part = slice_rows(a, lo, hi);
    const PbPlan plan = pb_plan_build(a_part, b, cfg);
    PbResult r = pb_execute<PlusTimes>(a_part, b, plan, workspace,
                                       /*check_fingerprint=*/false);
    r.stats.symbolic = plan.symbolic;
    out.parts.push_back(r.stats);
    pieces.push_back(std::move(r.c));
  }

  out.c = stack_row_blocks(pieces, a.nrows, b.ncols);
  return out;
}

}  // namespace pbs::pb
