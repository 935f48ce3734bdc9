#include "pb/sort_compress.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

namespace pbs::pb {
namespace {

TEST(SortCompress, SingleBinKnownCase) {
  std::vector<Tuple> t{{make_key(1, 2), 1.0},
                       {make_key(0, 5), 2.0},
                       {make_key(1, 2), 3.0},
                       {make_key(0, 1), 4.0}};
  const std::vector<nnz_t> offsets{0, 4};
  const std::vector<nnz_t> fill{4};
  const SortCompressResult r =
      pb_sort_compress<PlusTimes>(t.data(), offsets, fill, 1);
  ASSERT_EQ(r.merged[0], 3);
  EXPECT_EQ(t[0].key, make_key(0, 1));
  EXPECT_EQ(t[0].val, 4.0);
  EXPECT_EQ(t[1].key, make_key(0, 5));
  EXPECT_EQ(t[1].val, 2.0);
  EXPECT_EQ(t[2].key, make_key(1, 2));
  EXPECT_EQ(t[2].val, 4.0);  // 1 + 3 merged
}

TEST(SortCompress, EmptyBinsHandled) {
  std::vector<Tuple> t{{make_key(0, 0), 1.0}};
  const std::vector<nnz_t> offsets{0, 0, 1, 1};
  const std::vector<nnz_t> fill{0, 1, 0};
  const SortCompressResult r =
      pb_sort_compress<PlusTimes>(t.data(), offsets, fill, 3);
  EXPECT_EQ(r.merged[0], 0);
  EXPECT_EQ(r.merged[1], 1);
  EXPECT_EQ(r.merged[2], 0);
}

TEST(SortCompress, AllDuplicatesCollapseToOne) {
  std::vector<Tuple> t(1000, Tuple{make_key(3, 7), 1.0});
  const std::vector<nnz_t> offsets{0, 1000};
  const std::vector<nnz_t> fill{1000};
  const SortCompressResult r =
      pb_sort_compress<PlusTimes>(t.data(), offsets, fill, 1);
  ASSERT_EQ(r.merged[0], 1);
  EXPECT_EQ(t[0].val, 1000.0);
}

TEST(SortCompress, NoDuplicatesKeepsAll) {
  std::vector<Tuple> t;
  for (index_t i = 99; i >= 0; --i) t.push_back({make_key(0, i), 1.0});
  const std::vector<nnz_t> offsets{0, 100};
  const std::vector<nnz_t> fill{100};
  const SortCompressResult r =
      pb_sort_compress<PlusTimes>(t.data(), offsets, fill, 1);
  EXPECT_EQ(r.merged[0], 100);
  for (index_t i = 0; i < 100; ++i) EXPECT_EQ(key_col(t[i].key), i);
}

TEST(SortCompress, RandomizedMatchesMapSemantics) {
  std::mt19937_64 rng(12);
  const int nbins = 4;
  const int per_bin = 5000;
  std::vector<Tuple> t;
  std::vector<nnz_t> offsets{0};
  std::map<std::uint64_t, value_t> expected[nbins];
  for (int bin = 0; bin < nbins; ++bin) {
    for (int i = 0; i < per_bin; ++i) {
      // Rows partitioned by bin to respect the bin invariant.
      const auto row = static_cast<index_t>(bin * 100 + rng() % 100);
      const auto col = static_cast<index_t>(rng() % 50);
      const auto val = static_cast<value_t>(1 + rng() % 5);
      t.push_back({make_key(row, col), val});
      expected[bin][make_key(row, col)] += val;
    }
    offsets.push_back(offsets.back() + per_bin);
  }
  const std::vector<nnz_t> fill(nbins, per_bin);

  const SortCompressResult r =
      pb_sort_compress<PlusTimes>(t.data(), offsets, fill, nbins);
  for (int bin = 0; bin < nbins; ++bin) {
    ASSERT_EQ(r.merged[static_cast<std::size_t>(bin)],
              static_cast<nnz_t>(expected[bin].size()));
    auto it = expected[bin].begin();
    for (nnz_t i = 0; i < r.merged[static_cast<std::size_t>(bin)]; ++i, ++it) {
      const Tuple& tp = t[static_cast<std::size_t>(offsets[bin] + i)];
      ASSERT_EQ(tp.key, it->first);
      ASSERT_EQ(tp.val, it->second);  // exact: small-integer values
    }
  }
}

TEST(SortCompress, TimersAreNonNegative) {
  std::vector<Tuple> t(1000);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = {make_key(0, static_cast<index_t>(i % 97)), 1.0};
  const std::vector<nnz_t> offsets{0, 1000};
  const std::vector<nnz_t> fill{1000};
  const SortCompressResult r =
      pb_sort_compress<PlusTimes>(t.data(), offsets, fill, 1);
  EXPECT_GE(r.sort_seconds, 0.0);
  EXPECT_GE(r.compress_seconds, 0.0);
}

TEST(KeyCodec, RoundTrips) {
  for (const index_t r : {0, 1, 1000, (1 << 20) - 1}) {
    for (const index_t c : {0, 7, 65535, (1 << 20) - 1}) {
      const std::uint64_t k = make_key(r, c);
      EXPECT_EQ(key_row(k), r);
      EXPECT_EQ(key_col(k), c);
    }
  }
}

TEST(KeyCodec, OrderIsRowMajor) {
  EXPECT_LT(make_key(0, 1000000), make_key(1, 0));
  EXPECT_LT(make_key(5, 2), make_key(5, 3));
}

}  // namespace
}  // namespace pbs::pb
