#include "numeric/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace mann::numeric {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, Mix64IsSplitMix64) {
  // One step of SplitMix64's reference definition from state x.
  EXPECT_EQ(mix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(mix64(1), 0x910A2DEC89025CC1ULL);
  EXPECT_EQ(mix64(2019), 0x5F335BDA79ECFB6EULL);
  EXPECT_EQ(mix64(~0ULL), 0xE4D971771B652C20ULL);
}

TEST(Rng, SeedStreamIsPinned) {
  // Golden draws: every generated dataset, weight init and shuffle
  // follows from these, so a change to the seeding moves them all.
  const std::pair<std::uint64_t, std::uint64_t> first_draws[] = {
      {0, 0x99EC5F36CB75F2B4ULL},
      {2019, 0x802B685CBF4637B9ULL},
      {~0ULL, 0x8F5520D52A7EAD08ULL},
  };
  for (const auto& [seed, draw] : first_draws) {
    Rng rng(seed);
    EXPECT_EQ(rng(), draw) << "seed " << seed;
  }
  Rng rng(2019);
  (void)rng();
  EXPECT_EQ(rng(), 0x59A334CD2E528EAAULL);
  EXPECT_EQ(rng(), 0xE9597C24F626FBBFULL);
  EXPECT_EQ(rng(), 0xF2BA10C2BCAF2E87ULL);
  EXPECT_EQ(rng(), 0x144C11639151D9D4ULL);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a() == b() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1'000; ++i) {
    const float v = rng.uniform(-2.0F, 3.0F);
    EXPECT_GE(v, -2.0F);
    EXPECT_LT(v, 3.0F);
  }
}

TEST(Rng, IndexCoversRange) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const std::size_t idx = rng.index(5);
    EXPECT_LT(idx, 5U);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(31);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const float v = rng.normal();
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(32);
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.normal(5.0F, 0.5F);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(21);
  const auto sample = rng.sample_without_replacement(10, 6);
  EXPECT_EQ(sample.size(), 6U);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6U);
  for (const std::size_t s : sample) {
    EXPECT_LT(s, 10U);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(22);
  const auto sample = rng.sample_without_replacement(4, 4);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 4U);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(23);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace mann::numeric
