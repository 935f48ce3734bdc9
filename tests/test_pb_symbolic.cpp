#include "pb/symbolic.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "matrix/mstats.hpp"

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

TEST(PbSymbolic, FlopMatchesIndependentCount) {
  const Operands ops = er_operands(512, 5.0, 1);
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, PbConfig{});
  EXPECT_EQ(sym.flop, mtx::count_flops(ops.a, ops.b));
}

TEST(PbSymbolic, BinHomeIsAContiguousPartitionOverDetectedNodes) {
  // bin_home maps every bin to the NUMA node whose memory should back it
  // (PbWorkspace::place_bins first-touches accordingly).  On any machine
  // it must be a valid contiguous non-decreasing partition spanning
  // exactly numa_nodes nodes; on a single-node machine it is all zeros.
  const Operands ops = er_operands(1024, 6.0, 7);
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, PbConfig{});
  ASSERT_EQ(sym.bin_home.size(),
            static_cast<std::size_t>(sym.layout.nbins));
  ASSERT_GE(sym.numa_nodes, 1);
  int max_node = 0;
  for (std::size_t i = 0; i < sym.bin_home.size(); ++i) {
    ASSERT_GE(sym.bin_home[i], 0);
    ASSERT_LT(sym.bin_home[i], sym.numa_nodes);
    if (i > 0) ASSERT_GE(sym.bin_home[i], sym.bin_home[i - 1]);  // contiguous
    max_node = std::max(max_node, sym.bin_home[i]);
  }
  EXPECT_EQ(max_node + 1, sym.numa_nodes);
}

TEST(PbSymbolic, BinFillsPartitionFlopAndRegionsAlign) {
  const Operands ops = er_operands(700, 4.0, 2);
  PbConfig cfg;
  cfg.nbins = 16;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);
  ASSERT_EQ(sym.bin_offsets.size(),
            static_cast<std::size_t>(sym.layout.nbins) + 1);
  ASSERT_EQ(sym.bin_fill.size(), static_cast<std::size_t>(sym.layout.nbins));
  EXPECT_EQ(sym.bin_offsets.front(), 0);

  // Region starts are 64-byte aligned on both streams: 4-tuple
  // granularity wide (4 x 16 B), 16-tuple narrow (16 x 4 B keys).
  const nnz_t pad = sym.format == TupleFormat::kNarrow ? 16 : 4;
  nnz_t total_fill = 0;
  for (int bin = 0; bin < sym.layout.nbins; ++bin) {
    const nnz_t region = sym.bin_offsets[static_cast<std::size_t>(bin) + 1] -
                         sym.bin_offsets[static_cast<std::size_t>(bin)];
    EXPECT_EQ(sym.bin_offsets[static_cast<std::size_t>(bin)] % pad, 0);
    EXPECT_GE(region, sym.bin_fill[static_cast<std::size_t>(bin)]);
    EXPECT_LT(region - sym.bin_fill[static_cast<std::size_t>(bin)], pad);
    total_fill += sym.bin_fill[static_cast<std::size_t>(bin)];
  }
  EXPECT_EQ(total_fill, sym.flop);
  EXPECT_GE(sym.bin_offsets.back(), sym.flop);
}

TEST(PbSymbolic, HistogramMatchesBruteForce) {
  const Operands ops = er_operands(300, 4.0, 3);
  PbConfig cfg;
  cfg.nbins = 8;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);

  // Brute force: per tuple, find its bin.
  std::vector<nnz_t> expected(static_cast<std::size_t>(sym.layout.nbins), 0);
  for (index_t i = 0; i < ops.a.ncols; ++i) {
    for (const index_t r : ops.a.col_rows(i)) {
      expected[static_cast<std::size_t>(sym.layout.binid(r))] +=
          ops.b.row_nnz(i);
    }
  }
  for (int bin = 0; bin < sym.layout.nbins; ++bin) {
    EXPECT_EQ(sym.bin_fill[static_cast<std::size_t>(bin)],
              expected[static_cast<std::size_t>(bin)])
        << "bin " << bin;
  }
}

TEST(PbSymbolic, AutoNbinsRespectsL2Override) {
  const Operands ops = er_operands(2048, 8.0, 4);
  PbConfig small_l2;
  small_l2.l2_bytes = 64 * 1024;
  PbConfig big_l2;
  big_l2.l2_bytes = 16 * 1024 * 1024;
  const SymbolicResult s1 = pb_symbolic(ops.a, ops.b, small_l2);
  const SymbolicResult s2 = pb_symbolic(ops.a, ops.b, big_l2);
  EXPECT_GT(s1.layout.nbins, s2.layout.nbins);
}

TEST(PbSymbolic, DimensionMismatchThrows) {
  const mtx::CsrMatrix a = mtx::coo_to_csr(mtx::generate_er(10, 20, 2.0, 5));
  const mtx::CsrMatrix b = mtx::coo_to_csr(mtx::generate_er(30, 10, 2.0, 6));
  EXPECT_THROW(pb_symbolic(mtx::csr_to_csc(a), b, PbConfig{}),
               std::invalid_argument);
}

TEST(PbSymbolic, EmptyInputsGiveZeroFlop) {
  mtx::CooMatrix empty(64, 64);
  const mtx::CsrMatrix e = mtx::coo_to_csr(empty);
  const SymbolicResult sym = pb_symbolic(mtx::csr_to_csc(e), e, PbConfig{});
  EXPECT_EQ(sym.flop, 0);
  EXPECT_EQ(sym.bin_offsets.back(), 0);
  EXPECT_GE(sym.layout.nbins, 1);
}

TEST(PbSymbolic, RectangularOperands) {
  const mtx::CsrMatrix a = mtx::coo_to_csr(mtx::generate_er(100, 50, 3.0, 7));
  const mtx::CsrMatrix b = mtx::coo_to_csr(mtx::generate_er(50, 200, 3.0, 8));
  const SymbolicResult sym = pb_symbolic(mtx::csr_to_csc(a), b, PbConfig{});
  EXPECT_EQ(sym.flop, mtx::count_flops(a, b));
  nnz_t total_fill = 0;
  for (const nnz_t f : sym.bin_fill) total_fill += f;
  EXPECT_EQ(total_fill, sym.flop);
}

}  // namespace
}  // namespace pbs::pb
