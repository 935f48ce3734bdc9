#include "common/prefix_sum.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

namespace pbs {
namespace {

std::vector<nnz_t> random_counts(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<nnz_t> dist(0, 1000);
  std::vector<nnz_t> v(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) v[i] = dist(rng);
  return v;
}

TEST(ExclusiveScan, EmptyArray) {
  std::vector<nnz_t> a{0};
  EXPECT_EQ(exclusive_scan_inplace(a.data(), 0), 0);
  EXPECT_EQ(a[0], 0);
}

TEST(ExclusiveScan, SingleElement) {
  std::vector<nnz_t> a{7, 0};
  EXPECT_EQ(exclusive_scan_inplace(a.data(), 1), 7);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 7);
}

TEST(ExclusiveScan, KnownSequence) {
  std::vector<nnz_t> a{1, 2, 3, 4, 0};
  EXPECT_EQ(exclusive_scan_inplace(a.data(), 4), 10);
  EXPECT_EQ(a, (std::vector<nnz_t>{0, 1, 3, 6, 10}));
}

TEST(ExclusiveScan, AllZeros) {
  std::vector<nnz_t> a(17, 0);
  EXPECT_EQ(exclusive_scan_inplace(a.data(), 16), 0);
  for (const nnz_t v : a) EXPECT_EQ(v, 0);
}

TEST(CountsToRowptr, BuildsCsrPointers) {
  // counts: row0=2, row1=0, row2=3
  std::vector<nnz_t> rp{0, 2, 0, 3};
  EXPECT_EQ(counts_to_rowptr(rp.data(), 3), 5);
  EXPECT_EQ(rp, (std::vector<nnz_t>{0, 2, 2, 5}));
}

TEST(CountsToRowptr, ZeroRows) {
  std::vector<nnz_t> rp{0};
  EXPECT_EQ(counts_to_rowptr(rp.data(), 0), 0);
}

TEST(CountsToRowptr, MatchesAccumulate) {
  std::vector<nnz_t> counts = random_counts(1000, 7);
  std::vector<nnz_t> rp(1001, 0);
  for (std::size_t i = 0; i < 1000; ++i) rp[i + 1] = counts[i];
  const nnz_t total = counts_to_rowptr(rp.data(), 1000);
  EXPECT_EQ(total,
            std::accumulate(counts.begin(), counts.begin() + 1000, nnz_t{0}));
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(rp[i + 1] - rp[i], counts[i]);
}

}  // namespace
}  // namespace pbs
