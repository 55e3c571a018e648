#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mann::numeric {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  const Matrix m;
  EXPECT_EQ(m.rows(), 0U);
  EXPECT_EQ(m.cols(), 0U);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructsZeroed) {
  const Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3U);
  EXPECT_EQ(m.cols(), 4U);
  EXPECT_EQ(m.size(), 12U);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(m(r, c), 0.0F);
    }
  }
}

TEST(Matrix, ConstructFromValuesChecksShape) {
  EXPECT_NO_THROW(Matrix(2, 2, {1.0F, 2.0F, 3.0F, 4.0F}));
  EXPECT_THROW(Matrix(2, 2, {1.0F, 2.0F}), std::invalid_argument);
}

TEST(Matrix, RowMajorLayout) {
  const Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m(0, 0), 1.0F);
  EXPECT_EQ(m(0, 2), 3.0F);
  EXPECT_EQ(m(1, 0), 4.0F);
  EXPECT_EQ(m(1, 2), 6.0F);
}

TEST(Matrix, RowSpanAliasesStorage) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  auto row = m.row(1);
  ASSERT_EQ(row.size(), 3U);
  row[0] = 42.0F;
  EXPECT_EQ(m(1, 0), 42.0F);
}

TEST(Matrix, FillAndScale) {
  Matrix m(2, 2);
  m.fill(3.0F);
  m.scale(2.0F);
  EXPECT_EQ(m(1, 1), 6.0F);
}

TEST(Matrix, AddScaled) {
  Matrix a(1, 3, {1, 2, 3});
  const Matrix b(1, 3, {10, 20, 30});
  a.add_scaled(b, 0.5F);
  EXPECT_FLOAT_EQ(a(0, 0), 6.0F);
  EXPECT_FLOAT_EQ(a(0, 2), 18.0F);
}

TEST(Matrix, AddScaledShapeMismatchThrows) {
  Matrix a(1, 3);
  const Matrix b(3, 1);
  EXPECT_THROW(a.add_scaled(b, 1.0F), std::invalid_argument);
}

TEST(Matrix, ResizeZeroedClearsContents) {
  Matrix m(1, 2, {7, 8});
  m.resize_zeroed(2, 2);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m(0, 0), 0.0F);
  EXPECT_EQ(m(1, 1), 0.0F);
}

}  // namespace
}  // namespace mann::numeric
