#include "pb/binning.hpp"

#include <gtest/gtest.h>

namespace pbs::pb {
namespace {

TEST(RangeLayout, CoversAllRowsInOrder) {
  const BinLayout l = make_range_layout(1000, 8);
  EXPECT_GE(l.nbins, 4);
  EXPECT_LE(l.nbins, 8);
  int prev = 0;
  for (index_t r = 0; r < 1000; ++r) {
    const int b = l.binid(r);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, l.nbins);
    ASSERT_GE(b, prev) << "range bins must be monotone in row";
    prev = b;
  }
  EXPECT_EQ(l.binid(999), l.nbins - 1);
}

TEST(RangeLayout, RowsPerBinIsPowerOfTwo) {
  for (index_t n : {10, 100, 1024, 1000000}) {
    for (int target : {1, 4, 64, 1024}) {
      const BinLayout l = make_range_layout(n, target);
      const index_t per = l.rows_per_bin();
      EXPECT_EQ(per & (per - 1), 0) << "n=" << n << " target=" << target;
      EXPECT_GE(static_cast<nnz_t>(per) * l.nbins, n);
    }
  }
}

TEST(RangeLayout, SingleBin) {
  const BinLayout l = make_range_layout(100, 1);
  EXPECT_EQ(l.nbins, 1);
  EXPECT_EQ(l.binid(0), 0);
  EXPECT_EQ(l.binid(99), 0);
}

TEST(RangeLayout, MoreBinsThanRowsDegradesGracefully) {
  const BinLayout l = make_range_layout(5, 64);
  EXPECT_LE(l.nbins, 5);
  for (index_t r = 0; r < 5; ++r) EXPECT_LT(l.binid(r), l.nbins);
}

TEST(AutoNbins, FollowsPaperRule) {
  const std::size_t l2 = 1024 * 1024;  // 1MB, Skylake
  // flop so small everything fits in half of L2: one bin.
  EXPECT_EQ(auto_nbins(1000, l2), 1);
  // 16M tuples * 16B = 256MB; /(0.5MB) = 512 bins.
  EXPECT_EQ(auto_nbins(16 << 20, l2), 512);
  // Rounds up to a power of two.
  EXPECT_EQ(auto_nbins((16 << 20) + 1, l2), 1024);
}

TEST(AutoNbins, ClampsAtBounds) {
  EXPECT_EQ(auto_nbins(0, 1 << 20), 1);
  EXPECT_EQ(auto_nbins(nnz_t{1} << 40, 1 << 20), 1 << 16);  // upper clamp
}

}  // namespace
}  // namespace pbs::pb
