// Deterministic random number generation.
//
// Every stochastic component in the project (data generation, weight init,
// training shuffles) draws from this engine so that experiments are exactly
// reproducible from a seed. xoshiro256** is used instead of std::mt19937
// because its output is identical across standard libraries, which keeps
// golden test values portable.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mann::numeric {

/// SplitMix64 (Steele, Lea & Flood): one golden-ratio step of `x` and the
/// finalizer, as a stateless 64-bit hash. Rng seeds from its stream, and
/// the cluster's hash ring and trace scaling hash with it, so all three
/// are the same on every host and standard library.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform float in [lo, hi).
  [[nodiscard]] float uniform(float lo, float hi) noexcept;

  /// Uniform integer in [0, n). `n` must be > 0.
  [[nodiscard]] std::size_t index(std::size_t n) noexcept;

  /// Standard normal via Box-Muller (stateless: no cached spare).
  [[nodiscard]] float normal() noexcept;

  /// Normal with explicit mean/stddev.
  [[nodiscard]] float normal(float mean, float stddev) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mann::numeric
