#include "common/default_init_vector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/types.hpp"

namespace pbs {
namespace {

TEST(DefaultInitVector, CopiesIntoAPlainVector) {
  const DefaultInitVector<value_t> v{1.5, 2.5, 3.5};
  const std::vector<value_t> plain = v;
  EXPECT_EQ(plain, (std::vector<value_t>{1.5, 2.5, 3.5}));
}

TEST(DefaultInitVector, ComparesEqualToAVectorLiteral) {
  const DefaultInitVector<index_t> v{4, 5, 6};
  EXPECT_EQ(v, (std::vector<index_t>{4, 5, 6}));
  EXPECT_FALSE(v == (std::vector<index_t>{4, 5}));
  EXPECT_FALSE(v == (std::vector<index_t>{4, 5, 7}));
  EXPECT_EQ(v, (DefaultInitVector<index_t>{4, 5, 6}));
}

TEST(DefaultInitVector, GrowthKeepsThePrefix) {
  DefaultInitVector<index_t> v{7, 8, 9};
  v.resize(1000);
  ASSERT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[1], 8);
  EXPECT_EQ(v[2], 9);
}

#ifndef NDEBUG
// Builds with assertions poison what resize adds, so a producer that
// forgets to write an entry reads a loud value instead of a zero.
TEST(DefaultInitVector, GrownElementsHoldThePoison) {
  DefaultInitVector<index_t> ids{1};
  ids.resize(64);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(ids[i], -1);

  DefaultInitVector<value_t> vals(64);
  for (const value_t x : vals) EXPECT_TRUE(std::isnan(x));
}
#endif

}  // namespace
}  // namespace pbs
