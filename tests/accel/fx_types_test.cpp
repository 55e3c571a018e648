#include "accel/fx_types.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "numeric/random.hpp"
#include "numeric/vector_ops.hpp"

namespace mann::accel {
namespace {

TEST(FxMatrix, ShapeAndAccess) {
  FxMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.size(), 6U);
  m(1, 2) = Fx::from_float(1.5F);
  EXPECT_FLOAT_EQ(m(1, 2).to_float(), 1.5F);
}

TEST(FxMatrix, RowSpanAliases) {
  FxMatrix m(2, 2);
  auto row = m.row(1);
  row[0] = Fx::from_float(-2.0F);
  EXPECT_FLOAT_EQ(m(1, 0).to_float(), -2.0F);
}

TEST(Quantize, RoundTripWithinLsb) {
  numeric::Rng rng(3);
  numeric::Matrix m(4, 5);
  for (float& v : m.data()) {
    v = rng.uniform(-2.0F, 2.0F);
  }
  const FxMatrix q = quantize(m);
  const numeric::Matrix back = dequantize(q);
  const float lsb = 1.0F / 65536.0F;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_NEAR(back(r, c), m(r, c), 0.5F * lsb + 1e-7F);
    }
  }
}

TEST(FxDot, MatchesFloatReference) {
  numeric::Rng rng(7);
  std::vector<float> fa(24);
  std::vector<float> fb(24);
  FxVector a(24);
  FxVector b(24);
  for (std::size_t i = 0; i < 24; ++i) {
    fa[i] = rng.uniform(-1.0F, 1.0F);
    fb[i] = rng.uniform(-1.0F, 1.0F);
    a[i] = Fx::from_float(fa[i]);
    b[i] = Fx::from_float(fb[i]);
  }
  const float ref = numeric::dot(fa, fb);
  EXPECT_NEAR(fx_dot(a, b).to_float(), ref, 24.0F * 3.0F / 65536.0F);
}

/// The datapath's dot product written out step by step: each product
/// rounded half away from zero by a branch on its sign, saturated, and
/// added to the accumulator in order with saturation. fx_dot must give
/// its bits on every input, whichever path it takes.
std::int32_t sequential_dot(std::span<const Fx> a, std::span<const Fx> b) {
  constexpr std::int64_t kMax = Fx::kRawMax;
  constexpr std::int64_t kMin = Fx::kRawMin;
  constexpr std::int64_t kBias = std::int64_t{1} << (Fx::kFracBits - 1);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t prod =
        static_cast<std::int64_t>(a[i].raw()) * b[i].raw();
    const std::int64_t rounded = prod >= 0
                                     ? (prod + kBias) >> Fx::kFracBits
                                     : -((-prod + kBias) >> Fx::kFracBits);
    acc = std::clamp(acc + std::clamp(rounded, kMin, kMax), kMin, kMax);
  }
  return static_cast<std::int32_t>(acc);
}

FxVector from_raws(const std::vector<std::int32_t>& raws) {
  FxVector v;
  for (const std::int32_t r : raws) {
    v.push_back(Fx::from_raw(r));
  }
  return v;
}

/// Counts the pairs on which fx_dot and the sequential loop differ,
/// reporting the first few.
class DotChecker {
 public:
  void check(const FxVector& a, const FxVector& b, const std::string& what) {
    const std::int32_t want = sequential_dot(a, b);
    const std::int32_t got = fx_dot(a, b).raw();
    if (got != want && ++mismatches_ <= 5) {
      ADD_FAILURE() << what << " (length " << a.size() << "): fx_dot " << got
                    << ", sequential " << want;
    }
  }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t mismatches_ = 0;
};

/// `n` words drawn uniformly from [lo, hi].
FxVector uniform_words(std::mt19937_64& rng, std::size_t n, std::int64_t lo,
                       std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> word(lo, hi);
  FxVector v(n);
  for (Fx& x : v) {
    x = Fx::from_raw(static_cast<std::int32_t>(word(rng)));
  }
  return v;
}

TEST(FxDot, MatchesSequentialLoopInTheWorkingRange) {
  // Words up to +-2^20 (+-16.0), the scale of the datapath's weights and
  // registers: products round in the low bits, and sums stay in range.
  std::mt19937_64 rng(0xD07F00D);
  std::uniform_int_distribution<int> bits(8, 20);
  DotChecker checker;
  for (std::size_t n = 0; n <= 64; ++n) {
    for (int rep = 0; rep < 100; ++rep) {
      const std::int64_t span = std::int64_t{1} << bits(rng);
      checker.check(uniform_words(rng, n, -span, span),
                    uniform_words(rng, n, -span, span), "working range");
    }
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, MatchesSequentialLoopOnFullRangeWords) {
  // Whole-word operands: most products saturate, so these mostly take
  // the sequential fallback.
  std::mt19937_64 rng(0xF011);
  DotChecker checker;
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      checker.check(uniform_words(rng, n, Fx::kRawMin, Fx::kRawMax),
                    uniform_words(rng, n, Fx::kRawMin, Fx::kRawMax),
                    "full range");
    }
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, MatchesSequentialLoopAtTheSaturationBoundary) {
  // Rounded products that sum to exactly 2^31 - 1, +2^31 and -2^31: the
  // raw words times +-1.0 are the products themselves. Same-sign parts
  // put the magnitude sum on the target; a +x, -x pair added at random
  // places lifts it past 2^31 - 1 without moving the sum, and may
  // saturate a prefix of the sequential sum.
  std::mt19937_64 rng(0xB0DA);
  DotChecker checker;
  const std::int32_t one = Fx::kOne;
  for (const std::int64_t target :
       {std::int64_t{Fx::kRawMax}, -std::int64_t{Fx::kRawMin},
        std::int64_t{Fx::kRawMin}}) {
    const std::int64_t sign = target < 0 ? -1 : 1;
    for (int rep = 0; rep < 200; ++rep) {
      // |target| in 2-8 parts of at most 2^31 - 1, each given the sign.
      std::vector<std::int64_t> parts;
      std::int64_t left = sign * target;
      for (int k = std::uniform_int_distribution<int>(2, 8)(rng);
           k > 1 && left > 1; --k) {
        std::uniform_int_distribution<std::int64_t> cut(
            std::max<std::int64_t>(1, left - Fx::kRawMax), left - 1);
        const std::int64_t part = cut(rng);
        parts.push_back(sign * part);
        left -= part;
      }
      parts.push_back(sign * left);
      if (rep % 2 == 1) {
        const std::int64_t x =
            std::uniform_int_distribution<std::int64_t>(1, Fx::kRawMax)(rng);
        parts.push_back(x);
        parts.push_back(-x);
      }
      std::shuffle(parts.begin(), parts.end(), rng);
      FxVector a;
      FxVector b;
      for (const std::int64_t part : parts) {
        // The product's sign goes on either operand.
        const std::int64_t flip = (rng() & 1U) != 0U ? -1 : 1;
        a.push_back(Fx::from_raw(static_cast<std::int32_t>(part * flip)));
        b.push_back(Fx::from_raw(static_cast<std::int32_t>(one * flip)));
      }
      checker.check(a, b, "sum " + std::to_string(target));
      checker.check(b, a, "sum " + std::to_string(target) + ", swapped");
    }
  }
  // A few small cases by hand.
  const std::int32_t max = Fx::kRawMax;
  const std::int32_t min = Fx::kRawMin;
  checker.check(from_raws({max}), from_raws({one}), "2^31 - 1");
  checker.check(from_raws({1 << 30, 1 << 30}), from_raws({one, one}), "2^31");
  checker.check(from_raws({min}), from_raws({one}), "-2^31");
  checker.check(from_raws({max, 1, -1}), from_raws({one, one, one}),
                "saturated prefix");
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, MatchesSequentialLoopOnExactTies) {
  // Raw k * 2^16 +- 2^15 times raw +-1 is a product exactly half-way
  // between two integers k and k +- 1 of either sign: each product must
  // round half away from zero on its own before the sum.
  std::mt19937_64 rng(0x71E5);
  std::uniform_int_distribution<std::int32_t> whole(-300, 300);
  const std::int32_t half = Fx::kOne / 2;
  DotChecker checker;
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      FxVector a;
      FxVector b;
      for (std::size_t i = 0; i < n; ++i) {
        const bool above = (rng() & 1U) != 0U;
        a.push_back(Fx::from_raw(whole(rng) * Fx::kOne +
                                 (above ? half : -half)));
        b.push_back(Fx::from_raw((rng() & 1U) != 0U ? 1 : -1));
      }
      checker.check(a, b, "ties");
    }
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, MatchesSequentialLoopOnAllMinWords) {
  // kRawMin squared is the largest product there is (2^46 rounded), and
  // every one saturates. kLongest is one past the longest vector whose
  // magnitudes fit a 64-bit sum.
  constexpr std::size_t kLongest = std::size_t{1} << 17;
  DotChecker checker;
  for (const std::size_t n : {std::size_t{1}, std::size_t{24}, kLongest}) {
    const FxVector min(n, Fx::min());
    const FxVector max(n, Fx::max());
    checker.check(min, min, "kRawMin * kRawMin");
    checker.check(min, max, "kRawMin * kRawMax");
    checker.check(max, min, "kRawMax * kRawMin");
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, LengthMismatchThrows) {
  FxVector a(3);
  FxVector b(2);
  EXPECT_THROW((void)fx_dot(a, b), std::invalid_argument);
}

TEST(FxAxpyAndAdd, Basics) {
  FxVector x = {Fx::from_float(1.0F), Fx::from_float(2.0F)};
  FxVector y = {Fx::from_float(10.0F), Fx::from_float(20.0F)};
  fx_axpy(Fx::from_float(0.5F), x, y);
  EXPECT_FLOAT_EQ(y[0].to_float(), 10.5F);
  EXPECT_FLOAT_EQ(y[1].to_float(), 21.0F);
  fx_add(x, y);
  EXPECT_FLOAT_EQ(y[0].to_float(), 11.5F);
  fx_clear(y);
  EXPECT_EQ(y[0], Fx{});
}

TEST(FxAxpy, MismatchThrows) {
  FxVector x(3);
  FxVector y(2);
  EXPECT_THROW(fx_axpy(Fx::from_float(1.0F), x, y), std::invalid_argument);
  EXPECT_THROW(fx_add(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace mann::accel
