#include "numeric/kde.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numeric/random.hpp"

namespace mann::numeric {
namespace {

TEST(KernelDensity, EmptyReturnsZero) {
  const KernelDensity kde(std::span<const float>{});
  EXPECT_TRUE(kde.empty());
  EXPECT_EQ(kde(0.0F), 0.0F);
}

TEST(KernelDensity, IntegratesToOne) {
  const std::vector<float> samples = {-1.0F, 0.0F, 0.5F, 2.0F, 2.5F};
  const KernelDensity kde(samples);
  // Trapezoidal integral over a wide window.
  double integral = 0.0;
  const float dx = 0.01F;
  for (float x = -10.0F; x < 12.0F; x += dx) {
    integral += static_cast<double>(kde(x)) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 1e-2);
}

TEST(KernelDensity, PeaksNearSampleMass) {
  const std::vector<float> samples = {0.0F, 0.01F, -0.01F, 0.02F};
  const KernelDensity kde(samples);
  EXPECT_GT(kde(0.0F), kde(1.0F));
  EXPECT_GT(kde(0.0F), kde(-1.0F));
}

TEST(KernelDensity, ExplicitBandwidthIsUsed) {
  const std::vector<float> samples = {0.0F};
  const KernelDensity kde(samples, 2.0F);
  EXPECT_FLOAT_EQ(kde.bandwidth(), 2.0F);
  // Single sample with bandwidth h: density at center = 1/(h*sqrt(2*pi)).
  EXPECT_NEAR(kde(0.0F), 1.0F / (2.0F * std::sqrt(2.0F * 3.14159265F)),
              1e-4F);
}

TEST(KernelDensity, SilvermanBandwidthScalesWithSpread) {
  std::vector<float> narrow;
  std::vector<float> wide;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    narrow.push_back(rng.normal(0.0F, 0.1F));
    wide.push_back(rng.normal(0.0F, 3.0F));
  }
  const KernelDensity kn(narrow);
  const KernelDensity kw(wide);
  EXPECT_LT(kn.bandwidth(), kw.bandwidth());
}

TEST(KernelDensity, DegenerateConstantSamplesStillUsable) {
  const std::vector<float> samples(50, 1.5F);
  const KernelDensity kde(samples);
  EXPECT_GT(kde.bandwidth(), 0.0F);
  EXPECT_GT(kde(1.5F), kde(2.0F));
}

TEST(KernelDensity, RecoversGaussianShape) {
  Rng rng(13);
  std::vector<float> samples;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back(rng.normal(1.0F, 0.5F));
  }
  const KernelDensity kde(samples);
  // Compare against the true pdf at a few points.
  const auto pdf = [](float x) {
    const float s = 0.5F;
    const float u = (x - 1.0F) / s;
    return std::exp(-0.5F * u * u) /
           (s * std::sqrt(2.0F * 3.14159265F));
  };
  for (const float x : {0.0F, 0.5F, 1.0F, 1.5F, 2.0F}) {
    EXPECT_NEAR(kde(x), pdf(x), 0.05F) << "x=" << x;
  }
}

}  // namespace
}  // namespace mann::numeric
