#include "pb/partitioned.hpp"

#include <gtest/gtest.h>

#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs::pb {
namespace {

class Partitioned : public ::testing::TestWithParam<int> {};

TEST_P(Partitioned, MatchesUnpartitionedOnEr) {
  const int nparts = GetParam();
  const mtx::CsrMatrix a = testutil::exact_er(500, 500, 5.0, 81);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected = reference_spgemm(p);
  const PartitionedResult r =
      pb_spgemm_partitioned(p.a_csc, p.b_csr, nparts);
  ASSERT_TRUE(r.c.valid());
  EXPECT_TRUE(equal_exact(r.c, expected));
  EXPECT_EQ(r.parts.size(), static_cast<std::size_t>(nparts));
}

TEST_P(Partitioned, MatchesUnpartitionedOnSkewedRmat) {
  const int nparts = GetParam();
  const mtx::CsrMatrix a = testutil::exact_rmat(8, 8.0, 82);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const PartitionedResult r =
      pb_spgemm_partitioned(p.a_csc, p.b_csr, nparts);
  EXPECT_TRUE(equal_exact(r.c, reference_spgemm(p)));
}

INSTANTIATE_TEST_SUITE_P(Parts, Partitioned, ::testing::Values(1, 2, 3, 7, 16));

TEST(PartitionedEdge, SinglePartEqualsPlainPb) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 4.0, 83);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const PartitionedResult r = pb_spgemm_partitioned(p.a_csc, p.b_csr, 1);
  const PbResult plain = pb_spgemm(p.a_csc, p.b_csr);
  EXPECT_TRUE(equal_exact(r.c, plain.c));
  // Part flop sums to the whole multiplication's flop.
  EXPECT_EQ(r.parts[0].flop, plain.stats.flop);
}

TEST(PartitionedEdge, RowSlicesPackTheNarrowFormat) {
  // Row slices are short, so every part's plan packs the narrow format,
  // and the per-part telemetry reports it.
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 26);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const PartitionedResult r = pb_spgemm_partitioned(p.a_csc, p.b_csr, 4);
  EXPECT_TRUE(equal_exact(r.c, reference_spgemm(p)));
  ASSERT_EQ(r.parts.size(), 4u);
  for (const PbTelemetry& part : r.parts) {
    EXPECT_EQ(part.format, TupleFormat::kNarrow);
    EXPECT_EQ(part.tuple_bytes(), 12.0);
  }
}

TEST(PartitionedEdge, PartFlopsSumToTotal) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 84);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const PbResult plain = pb_spgemm(p.a_csc, p.b_csr);
  const PartitionedResult r = pb_spgemm_partitioned(p.a_csc, p.b_csr, 4);
  nnz_t flop = 0, nnzc = 0;
  for (const PbTelemetry& t : r.parts) {
    flop += t.flop;
    nnzc += t.nnz_c;
  }
  EXPECT_EQ(flop, plain.stats.flop);
  EXPECT_EQ(nnzc, plain.stats.nnz_c);
}

TEST(PartitionedEdge, MorePartsThanRows) {
  const mtx::CsrMatrix a = testutil::exact_er(5, 5, 2.0, 85);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const PartitionedResult r = pb_spgemm_partitioned(p.a_csc, p.b_csr, 64);
  EXPECT_TRUE(equal_exact(r.c, reference_spgemm(p)));
}

TEST(PartitionedEdge, RectangularOperands) {
  const mtx::CsrMatrix a = testutil::exact_er(120, 60, 3.0, 86);
  const mtx::CsrMatrix b = testutil::exact_er(60, 90, 3.0, 87);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  const PartitionedResult r = pb_spgemm_partitioned(p.a_csc, p.b_csr, 3);
  EXPECT_TRUE(equal_exact(r.c, reference_spgemm(p)));
}

TEST(PartitionedEdge, InvalidPartsThrow) {
  const mtx::CsrMatrix a = testutil::exact_er(10, 10, 2.0, 88);
  const SpGemmProblem p = SpGemmProblem::square(a);
  EXPECT_THROW(pb_spgemm_partitioned(p.a_csc, p.b_csr, 0),
               std::invalid_argument);
}

TEST(PartitionedEdge, EmptyMatrix) {
  mtx::CooMatrix empty(40, 40);
  const mtx::CsrMatrix e = mtx::coo_to_csr(empty);
  const SpGemmProblem p = SpGemmProblem::square(e);
  const PartitionedResult r = pb_spgemm_partitioned(p.a_csc, p.b_csr, 4);
  EXPECT_EQ(r.c.nnz(), 0);
  EXPECT_TRUE(r.c.valid());
}

}  // namespace
}  // namespace pbs::pb
