#include "numeric/random.hpp"

#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mann::numeric {

Rng::Rng(std::uint64_t seed) noexcept {
  // SplitMix64's stream: word i is mix64(seed + i * golden ratio).
  for (auto& word : state_) {
    word = mix64(seed);
    seed += 0x9E3779B97F4A7C15ULL;
  }
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

float Rng::uniform(float lo, float hi) noexcept {
  return lo + static_cast<float>(uniform()) * (hi - lo);
}

std::size_t Rng::index(std::size_t n) noexcept {
  // Multiplicative range reduction; bias is negligible for n << 2^64.
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

float Rng::normal() noexcept {
  // Box-Muller; draw u1 away from zero to keep log finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return static_cast<float>(mag *
                            std::cos(2.0 * std::numbers::pi * u2));
}

float Rng::normal(float mean, float stddev) noexcept {
  return mean + stddev * normal();
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument("sample_without_replacement: k > n");
  }
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool[i] = i;
  }
  // Partial Fisher-Yates: the first k slots become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace mann::numeric
