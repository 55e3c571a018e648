// Bit-for-bit comparison of two sets of ITH tables: every field an ITH
// record stores. Shared by the cache tests here and the suite-scale
// record test in tests/integration.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/ith.hpp"

namespace mann::core {

inline std::vector<std::uint32_t> float_bits(const std::vector<float>& xs) {
  std::vector<std::uint32_t> bits;
  bits.reserve(xs.size());
  for (const float x : xs) {
    bits.push_back(std::bit_cast<std::uint32_t>(x));
  }
  return bits;
}

inline void expect_same_tables(const InferenceThresholding& expected,
                               const InferenceThresholding& actual) {
  const IthConfig& e = expected.config();
  const IthConfig& a = actual.config();
  EXPECT_EQ(std::bit_cast<std::uint32_t>(e.rho),
            std::bit_cast<std::uint32_t>(a.rho));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(e.kde_bandwidth),
            std::bit_cast<std::uint32_t>(a.kde_bandwidth));
  EXPECT_EQ(e.min_positive_samples, a.min_positive_samples);
  EXPECT_EQ(e.use_priors, a.use_priors);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(e.support_sigmas),
            std::bit_cast<std::uint32_t>(a.support_sigmas));
  EXPECT_EQ(float_bits(expected.thresholds()),
            float_bits(actual.thresholds()));
  EXPECT_EQ(expected.probe_order(), actual.probe_order());
  EXPECT_EQ(float_bits(expected.silhouettes()),
            float_bits(actual.silhouettes()));
  EXPECT_EQ(float_bits(expected.priors()), float_bits(actual.priors()));
}

}  // namespace mann::core
