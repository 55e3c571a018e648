// Aggregation of per-task ratios for the paper's per-task figure.
#pragma once

#include <span>

namespace mann::numeric {

/// Geometric mean of strictly positive values; 0 if any value <= 0 or empty.
/// Used to aggregate per-task energy-efficiency ratios (Fig. 4).
[[nodiscard]] float geometric_mean(std::span<const float> values) noexcept;

}  // namespace mann::numeric
