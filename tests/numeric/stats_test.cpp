#include "numeric/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mann::numeric {
namespace {

TEST(Stats, GeometricMean) {
  const std::vector<float> v = {1.0F, 4.0F, 16.0F};
  EXPECT_NEAR(geometric_mean(v), 4.0F, 1e-4F);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const std::vector<float> v = {1.0F, 0.0F};
  EXPECT_EQ(geometric_mean(v), 0.0F);
  EXPECT_EQ(geometric_mean({}), 0.0F);
}

}  // namespace
}  // namespace mann::numeric
