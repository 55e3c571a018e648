#include "numeric/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "numeric/random.hpp"

namespace mann::numeric {
namespace {

TEST(VectorOps, Dot) {
  const std::vector<float> a = {1, 2, 3};
  const std::vector<float> b = {4, 5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 32.0F);
}

TEST(VectorOps, DotLengthMismatchThrows) {
  const std::vector<float> a = {1, 2};
  const std::vector<float> b = {1};
  EXPECT_THROW((void)dot(a, b), std::invalid_argument);
}

TEST(VectorOps, Axpy) {
  const std::vector<float> x = {1, 2};
  std::vector<float> y = {10, 20};
  axpy(2.0F, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0F);
  EXPECT_FLOAT_EQ(y[1], 24.0F);
}

TEST(VectorOps, Matvec) {
  const Matrix m(2, 3, {1, 0, 1, 0, 2, 0});
  const std::vector<float> x = {1, 2, 3};
  const auto y = matvec(m, x);
  ASSERT_EQ(y.size(), 2U);
  EXPECT_FLOAT_EQ(y[0], 4.0F);
  EXPECT_FLOAT_EQ(y[1], 4.0F);
}

TEST(VectorOps, MatvecTransposedMatchesExplicitTranspose) {
  Rng rng(11);
  Matrix m(4, 3);
  for (float& v : m.data()) {
    v = rng.normal();
  }
  std::vector<float> x = {0.5F, -1.0F, 2.0F, 0.25F};
  Matrix t(3, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      t(c, r) = m(r, c);
    }
  }
  const auto fast = matvec_transposed(m, x);
  const auto slow = matvec(t, x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-5F);
  }
}

TEST(VectorOps, SoftmaxSumsToOne) {
  std::vector<float> v = {1.0F, 2.0F, 3.0F, 4.0F};
  softmax_inplace(v);
  float sum = 0.0F;
  for (float e : v) {
    EXPECT_GT(e, 0.0F);
    sum += e;
  }
  EXPECT_NEAR(sum, 1.0F, 1e-6F);
  // Monotone: bigger logit, bigger probability.
  EXPECT_LT(v[0], v[1]);
  EXPECT_LT(v[2], v[3]);
}

TEST(VectorOps, SoftmaxIsShiftInvariant) {
  std::vector<float> a = {1.0F, 2.0F, 3.0F};
  std::vector<float> b = {101.0F, 102.0F, 103.0F};
  softmax_inplace(a);
  softmax_inplace(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-6F);
  }
}

TEST(VectorOps, SoftmaxHandlesLargeMagnitudes) {
  std::vector<float> v = {1000.0F, 0.0F};
  softmax_inplace(v);
  EXPECT_NEAR(v[0], 1.0F, 1e-6F);
  EXPECT_NEAR(v[1], 0.0F, 1e-6F);
}

TEST(VectorOps, ArgmaxPicksFirstOfTies) {
  const std::vector<float> v = {1.0F, 3.0F, 3.0F, 2.0F};
  EXPECT_EQ(argmax(v), 1U);
}

TEST(VectorOps, ArgmaxEmptyThrows) {
  const std::vector<float> v;
  EXPECT_THROW((void)argmax(v), std::invalid_argument);
}

TEST(VectorOps, AddOuter) {
  Matrix m(2, 2);
  const std::vector<float> col = {1.0F, 2.0F};
  const std::vector<float> row = {3.0F, 4.0F};
  add_outer(m, col, row, 1.0F);
  EXPECT_FLOAT_EQ(m(0, 0), 3.0F);
  EXPECT_FLOAT_EQ(m(0, 1), 4.0F);
  EXPECT_FLOAT_EQ(m(1, 0), 6.0F);
  EXPECT_FLOAT_EQ(m(1, 1), 8.0F);
}

}  // namespace
}  // namespace mann::numeric
