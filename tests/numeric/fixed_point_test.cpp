#include "numeric/fixed_point.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace mann::numeric {
namespace {

TEST(FixedPoint, RoundTripSmallValues) {
  for (const float v : {0.0F, 1.0F, -1.0F, 0.5F, -0.25F, 3.14159F}) {
    EXPECT_NEAR(fx16::from_float(v).to_float(), v, 1.0F / 65536.0F);
  }
}

TEST(FixedPoint, OneHasExactRaw) {
  EXPECT_EQ(fx16::from_float(1.0F).raw(), fx16::kOne);
}

TEST(FixedPoint, RoundsToNearest) {
  // Half an LSB above a representable value rounds up.
  const float lsb = 1.0F / 65536.0F;
  const fx16 v = fx16::from_float(lsb * 0.6F);
  EXPECT_EQ(v.raw(), 1);
  const fx16 w = fx16::from_float(lsb * 0.4F);
  EXPECT_EQ(w.raw(), 0);
}

TEST(FixedPoint, AdditionExact) {
  const auto a = fx16::from_float(1.25F);
  const auto b = fx16::from_float(2.5F);
  EXPECT_FLOAT_EQ((a + b).to_float(), 3.75F);
}

TEST(FixedPoint, SubtractionAndNegation) {
  const auto a = fx16::from_float(1.0F);
  const auto b = fx16::from_float(3.0F);
  EXPECT_FLOAT_EQ((a - b).to_float(), -2.0F);
  EXPECT_FLOAT_EQ((-b).to_float(), -3.0F);
}

TEST(FixedPoint, MultiplicationNearExactForDyadics) {
  const auto a = fx16::from_float(1.5F);
  const auto b = fx16::from_float(-2.25F);
  EXPECT_FLOAT_EQ((a * b).to_float(), -3.375F);
}

TEST(FixedPoint, MultiplicationErrorBounded) {
  // |error| of one multiply is at most one LSB.
  const float lsb = 1.0F / 65536.0F;
  for (float x = -3.0F; x < 3.0F; x += 0.37F) {
    for (float y = -2.0F; y < 2.0F; y += 0.29F) {
      const float got =
          (fx16::from_float(x) * fx16::from_float(y)).to_float();
      EXPECT_NEAR(got, x * y, 3.0F * lsb) << x << " * " << y;
    }
  }
}

TEST(FixedPoint, DivisionBasic) {
  const auto a = fx16::from_float(3.0F);
  const auto b = fx16::from_float(2.0F);
  EXPECT_NEAR((a / b).to_float(), 1.5F, 1.0F / 65536.0F);
}

TEST(FixedPoint, DivisionByZeroSaturates) {
  const auto a = fx16::from_float(1.0F);
  EXPECT_EQ(a / fx16{}, fx16::max());
  EXPECT_EQ((-a) / fx16{}, fx16::min());
}

TEST(FixedPoint, AdditionSaturatesInsteadOfWrapping) {
  const fx16 big = fx16::max();
  EXPECT_EQ(big + big, fx16::max());
  const fx16 small = fx16::min();
  EXPECT_EQ(small + small, fx16::min());
}

TEST(FixedPoint, MultiplicationSaturates) {
  const auto big = fx16::from_float(30000.0F);
  EXPECT_EQ(big * big, fx16::max());
  EXPECT_EQ(big * (-big), fx16::min());
}

TEST(FixedPoint, FromFloatSaturates) {
  EXPECT_EQ(fx16::from_float(1.0e9F), fx16::max());
  EXPECT_EQ(fx16::from_float(-1.0e9F), fx16::min());
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(fx16::from_float(kInf), fx16::max());
  EXPECT_EQ(fx16::from_float(-kInf), fx16::min());
  // A word has no NaN: it converts to zero.
  EXPECT_EQ(fx16::from_float(std::numeric_limits<float>::quiet_NaN()).raw(),
            0);
}

TEST(FixedPoint, ComparisonFollowsValue) {
  const auto a = fx16::from_float(1.0F);
  const auto b = fx16::from_float(2.0F);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, fx16::from_float(1.0F));
}

TEST(FixedPoint, CompoundOperators) {
  auto a = fx16::from_float(1.0F);
  a += fx16::from_float(0.5F);
  a *= fx16::from_float(2.0F);
  a -= fx16::from_float(1.0F);
  EXPECT_FLOAT_EQ(a.to_float(), 2.0F);
}

template <typename Fx>
class FixedPointPrecision : public ::testing::Test {};

using Formats = ::testing::Types<fx8, fx12, fx16, fx20, fx24>;
TYPED_TEST_SUITE(FixedPointPrecision, Formats);

TYPED_TEST(FixedPointPrecision, ResolutionMatchesFracBits) {
  const float lsb = 1.0F / static_cast<float>(1U << TypeParam::kFracBits);
  EXPECT_FLOAT_EQ(TypeParam::epsilon().to_float(), lsb);
  // Round trip within half an LSB.
  const float v = 0.7712F;
  EXPECT_NEAR(TypeParam::from_float(v).to_float(), v, 0.5F * lsb + 1e-7F);
}

TYPED_TEST(FixedPointPrecision, DotProductErrorShrinksWithPrecision) {
  // A short dot product in format F has error bounded by n * lsb-ish.
  const std::vector<float> a = {0.11F, -0.52F, 0.97F, 0.33F};
  const std::vector<float> b = {0.71F, 0.45F, -0.18F, 0.88F};
  TypeParam acc{};
  float ref = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += TypeParam::from_float(a[i]) * TypeParam::from_float(b[i]);
    ref += a[i] * b[i];
  }
  const float lsb = 1.0F / static_cast<float>(1U << TypeParam::kFracBits);
  EXPECT_NEAR(acc.to_float(), ref, 8.0F * lsb);
}

/// The multiply written with a branch on the product's sign: shift the
/// magnitude so the arithmetic right-shift's floor cannot bias negative
/// results, round half away from zero, then saturate.
/// FixedPoint::operator* rounds without the branch; these tests hold the
/// two to the same bits.
template <typename Fx>
typename Fx::raw_type reference_multiply(typename Fx::raw_type a,
                                         typename Fx::raw_type b) {
  using wide = typename Fx::wide_type;
  const wide prod = static_cast<wide>(a) * static_cast<wide>(b);
  const wide bias = wide{1} << (Fx::kFracBits - 1);
  const wide rounded = prod >= 0 ? (prod + bias) >> Fx::kFracBits
                                 : -((-prod + bias) >> Fx::kFracBits);
  return static_cast<typename Fx::raw_type>(
      std::clamp<wide>(rounded, Fx::kRawMin, Fx::kRawMax));
}

template <typename Fx>
void expect_multiply_matches_reference(typename Fx::raw_type a,
                                       typename Fx::raw_type b) {
  EXPECT_EQ((Fx::from_raw(a) * Fx::from_raw(b)).raw(),
            (reference_multiply<Fx>(a, b)))
      << a << " * " << b;
}

TYPED_TEST(FixedPointPrecision, MultiplyTiesRoundHalfAwayFromZero) {
  using raw = typename TypeParam::raw_type;
  constexpr unsigned f = TypeParam::kFracBits;
  const raw half = raw{1} << (f - 1);
  // Raw x times raw 1 (one LSB) is the full-precision product x, which
  // shifts back to x / 2^F: x = +-2^(F-1) is an exact tie, +-1 around it
  // its neighbours.
  const std::vector<raw> near_ties = {half,     -half,    half + 1,
                                      half - 1, -half + 1, -half - 1};
  for (const raw x : near_ties) {
    expect_multiply_matches_reference<TypeParam>(x, 1);
    expect_multiply_matches_reference<TypeParam>(1, x);
  }
  EXPECT_EQ((TypeParam::from_raw(half) * TypeParam::epsilon()).raw(), 1);
  EXPECT_EQ((TypeParam::from_raw(-half) * TypeParam::epsilon()).raw(), -1);
  EXPECT_EQ((TypeParam::from_raw(half - 1) * TypeParam::epsilon()).raw(), 0);
  EXPECT_EQ((TypeParam::from_raw(-half + 1) * TypeParam::epsilon()).raw(), 0);
  // Products k * 2^F +- 2^(F-1): the ties above and below each integer
  // k, built as raw (k * 2^F +- 2^(F-1)) times raw 1 and raw -1.
  for (raw k = -300; k <= 300; ++k) {
    const std::int64_t base = static_cast<std::int64_t>(k) << f;
    for (const std::int64_t off : {-std::int64_t{half}, std::int64_t{half}}) {
      const std::int64_t v = base + off;
      if (v >= TypeParam::kRawMin && v <= TypeParam::kRawMax) {
        expect_multiply_matches_reference<TypeParam>(static_cast<raw>(v), 1);
        expect_multiply_matches_reference<TypeParam>(static_cast<raw>(v), -1);
      }
    }
  }
}

TYPED_TEST(FixedPointPrecision, MultiplyMatchesReferenceAtTheExtremes) {
  using raw = typename TypeParam::raw_type;
  const std::vector<raw> edges = {TypeParam::kRawMin, TypeParam::kRawMax, 0,
                                  1, -1};
  for (const raw a : edges) {
    for (const raw b : edges) {
      expect_multiply_matches_reference<TypeParam>(a, b);
    }
  }
}

TYPED_TEST(FixedPointPrecision, MultiplyMatchesReferenceOnRandomPairs) {
  using raw = typename TypeParam::raw_type;
  std::mt19937_64 rng(0x5EED0F1C5ULL + TypeParam::kFracBits);
  std::uniform_int_distribution<raw> full(TypeParam::kRawMin,
                                          TypeParam::kRawMax);
  std::uniform_int_distribution<raw> small(-(raw{1} << 20), raw{1} << 20);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    // Half the pairs span the whole word (mostly saturating), half stay
    // near the datapath's working range, where rounding decides the LSB.
    const bool wide = (i & 1) == 0;
    const raw a = wide ? full(rng) : small(rng);
    const raw b = wide ? full(rng) : small(rng);
    if ((TypeParam::from_raw(a) * TypeParam::from_raw(b)).raw() !=
        reference_multiply<TypeParam>(a, b)) {
      ++mismatches;
      ADD_FAILURE() << a << " * " << b;
      if (mismatches > 5) {
        break;
      }
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

}  // namespace
}  // namespace mann::numeric
