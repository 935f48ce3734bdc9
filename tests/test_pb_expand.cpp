#include "pb/expand.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/aligned_buffer.hpp"
#include "matrix/convert.hpp"
#include "matrix/generate.hpp"

namespace pbs::pb {
namespace {

struct Operands {
  mtx::CscMatrix a;
  mtx::CsrMatrix b;
};

Operands er_operands(index_t n, double d, std::uint64_t seed) {
  const mtx::CsrMatrix a = mtx::coo_to_csr(mtx::generate_er(n, n, d, seed));
  const mtx::CsrMatrix b =
      mtx::coo_to_csr(mtx::generate_er(n, n, d, seed + 1000));
  return {mtx::csr_to_csc(a), b};
}

// Brute-force expansion: every (r,c,val) product tuple, as a multimap.
std::multimap<std::uint64_t, value_t> brute_tuples(const Operands& ops) {
  std::multimap<std::uint64_t, value_t> out;
  for (index_t i = 0; i < ops.a.ncols; ++i) {
    const auto rows = ops.a.col_rows(i);
    const auto avals = ops.a.col_vals(i);
    for (std::size_t ai = 0; ai < rows.size(); ++ai) {
      for (nnz_t bi = ops.b.rowptr[i];
           bi < ops.b.rowptr[static_cast<std::size_t>(i) + 1]; ++bi) {
        out.emplace(make_key(rows[ai], ops.b.colids[bi]),
                    avals[ai] * ops.b.vals[bi]);
      }
    }
  }
  return out;
}

TEST(Expand, ProducesExactTupleMultiset) {
  const Operands ops = er_operands(400, 4.0, 1);
  PbConfig cfg;
  cfg.nbins = 8;
  cfg.validate = true;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);

  AlignedBuffer<Tuple> out(static_cast<std::size_t>(sym.bin_offsets.back()));
  pb_expand<PlusTimes>(ops.a, ops.b, sym, cfg, out.data());

  // Same multiset of (key, value) pairs as brute force.  Only the filled
  // prefix of each (padded) bin region holds tuples.
  std::multimap<std::uint64_t, value_t> expected = brute_tuples(ops);
  ASSERT_EQ(static_cast<nnz_t>(expected.size()), sym.flop);
  std::vector<std::pair<std::uint64_t, value_t>> actual;
  actual.reserve(static_cast<std::size_t>(sym.flop));
  for (int bin = 0; bin < sym.layout.nbins; ++bin) {
    for (nnz_t i = 0; i < sym.bin_fill[static_cast<std::size_t>(bin)]; ++i) {
      const Tuple& t =
          out[static_cast<std::size_t>(sym.bin_offsets[static_cast<std::size_t>(bin)] + i)];
      actual.emplace_back(t.key, t.val);
    }
  }
  std::sort(actual.begin(), actual.end());
  std::vector<std::pair<std::uint64_t, value_t>> exp(expected.begin(),
                                                     expected.end());
  std::sort(exp.begin(), exp.end());
  EXPECT_EQ(actual, exp);
}

TEST(Expand, TuplesLandInTheirBins) {
  const Operands ops = er_operands(500, 5.0, 2);
  PbConfig cfg;
  cfg.nbins = 16;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);

  AlignedBuffer<Tuple> out(static_cast<std::size_t>(sym.bin_offsets.back()));
  pb_expand<PlusTimes>(ops.a, ops.b, sym, cfg, out.data());

  for (int bin = 0; bin < sym.layout.nbins; ++bin) {
    for (nnz_t i = sym.bin_offsets[static_cast<std::size_t>(bin)];
         i < sym.bin_offsets[static_cast<std::size_t>(bin)] +
                 sym.bin_fill[static_cast<std::size_t>(bin)];
         ++i) {
      ASSERT_EQ(sym.layout.binid(key_row(out[static_cast<std::size_t>(i)].key)),
                bin)
          << "tuple in wrong bin";
    }
  }
}

TEST(Expand, TinyLocalBinsStillCorrect) {
  // One-tuple local bins force a flush per tuple: the degenerate path.
  const Operands ops = er_operands(200, 4.0, 3);
  PbConfig cfg;
  cfg.nbins = 4;
  cfg.local_bin_bytes = static_cast<int>(sizeof(Tuple));
  cfg.validate = true;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);
  AlignedBuffer<Tuple> out(static_cast<std::size_t>(sym.bin_offsets.back()));
  const nnz_t flushes =
      pb_expand<PlusTimes>(ops.a, ops.b, sym, cfg, out.data());
  EXPECT_EQ(flushes, sym.flop);  // every tuple flushed individually
}

TEST(Expand, WideLocalBinsFlushRarely) {
  const Operands ops = er_operands(200, 4.0, 3);
  PbConfig cfg;
  cfg.nbins = 4;
  cfg.local_bin_bytes = 4096;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);
  AlignedBuffer<Tuple> out(static_cast<std::size_t>(sym.bin_offsets.back()));
  const nnz_t flushes =
      pb_expand<PlusTimes>(ops.a, ops.b, sym, cfg, out.data());
  EXPECT_LT(flushes, sym.flop / 16);
}

TEST(Expand, ValueProductsAreExact) {
  // Integer-valued inputs: each expanded tuple must be the exact product.
  mtx::CooMatrix acoo(4, 4), bcoo(4, 4);
  acoo.add(1, 0, 3.0);
  acoo.add(2, 0, 5.0);
  bcoo.add(0, 1, 7.0);
  bcoo.add(0, 3, 11.0);
  acoo.canonicalize();
  bcoo.canonicalize();
  const Operands ops{mtx::csr_to_csc(mtx::coo_to_csr(acoo)),
                     mtx::coo_to_csr(bcoo)};
  PbConfig cfg;
  cfg.nbins = 2;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);
  ASSERT_EQ(sym.flop, 4);
  AlignedBuffer<Tuple> out(static_cast<std::size_t>(sym.bin_offsets.back()));
  pb_expand<PlusTimes>(ops.a, ops.b, sym, cfg, out.data());
  std::vector<std::pair<std::uint64_t, value_t>> got;
  for (int bin = 0; bin < sym.layout.nbins; ++bin) {
    for (nnz_t i = 0; i < sym.bin_fill[static_cast<std::size_t>(bin)]; ++i) {
      const Tuple& t = out[static_cast<std::size_t>(
          sym.bin_offsets[static_cast<std::size_t>(bin)] + i)];
      got.emplace_back(t.key, t.val);
    }
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<std::uint64_t, value_t>> expected{
      {make_key(1, 1), 21.0},
      {make_key(1, 3), 33.0},
      {make_key(2, 1), 35.0},
      {make_key(2, 3), 55.0}};
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace pbs::pb
