// Datapath timing parameters: the cycle costs of the arithmetic units the
// accelerator instantiates. Central so the adder-tree-width and unit-latency
// ablations sweep one struct.
#pragma once

#include <cstddef>

#include "sim/types.hpp"

namespace mann::sim {

[[nodiscard]] constexpr std::size_t ceil_div(std::size_t a,
                                             std::size_t b) noexcept {
  return (a + b - 1) / b;
}

[[nodiscard]] constexpr Cycle ceil_log2(std::size_t n) noexcept {
  Cycle bits = 0;
  std::size_t v = 1;
  while (v < n) {
    v <<= 1U;
    ++bits;
  }
  return bits;
}

/// Cycle costs of the shared arithmetic units.
struct DatapathTiming {
  /// Adder-tree / MAC-array width: elements consumed per cycle by a dot
  /// product. The paper's modules compute dot products via an adder tree
  /// fed by parallel multipliers; its per-story cycle budget (Table I's
  /// compute term solves to ~200-500 cycles/story) implies the tree spans
  /// the whole embedding vector, so the default covers E = 24 in one
  /// issue (dot_ii == 1). The adder-tree ablation sweeps this down.
  std::size_t lane_width = 32;

  Cycle exp_latency = 2;  ///< exp LUT pipeline depth (BRAM read + interp)
  Cycle exp_ii = 1;       ///< exp initiation interval
  Cycle div_latency = 8;  ///< divider pipeline depth (seed + 2 NR steps)
  Cycle div_ii = 1;       ///< divider initiation interval (pipelined)
  Cycle bram_write = 1;   ///< memory-bank write cycles per vector batch

  /// Adder-tree reduction latency (log2 of width).
  [[nodiscard]] Cycle tree_latency() const noexcept {
    return ceil_log2(lane_width);
  }

  /// Pipelined dot product of length n: ceil(n/W) issue cycles + drain.
  [[nodiscard]] Cycle dot_cycles(std::size_t n) const noexcept {
    return static_cast<Cycle>(ceil_div(n, lane_width)) + tree_latency();
  }

  /// Issue interval of back-to-back dot products of length n (the drain
  /// overlaps with the next issue in a pipelined tree).
  [[nodiscard]] Cycle dot_ii(std::size_t n) const noexcept {
    const auto issue = static_cast<Cycle>(ceil_div(n, lane_width));
    return issue > 0 ? issue : 1;
  }

  /// n back-to-back dot products of length e, pipelined: the first pays
  /// the tree fill, each later one an issue interval.
  [[nodiscard]] Cycle dot_block(std::size_t n, std::size_t e) const noexcept {
    if (n == 0) {
      return 0;
    }
    return dot_cycles(e) + static_cast<Cycle>(n - 1) * dot_ii(e);
  }

  /// n sequential exp evaluations, pipelined.
  [[nodiscard]] Cycle exp_block(std::size_t n) const noexcept {
    if (n == 0) {
      return 0;
    }
    return exp_ii * static_cast<Cycle>(n - 1) + exp_latency + 1;
  }

  /// n sequential divider operations, pipelined.
  [[nodiscard]] Cycle div_block(std::size_t n) const noexcept {
    if (n == 0) {
      return 0;
    }
    return div_ii * static_cast<Cycle>(n - 1) + div_latency + 1;
  }
};

}  // namespace mann::sim
