#include "numeric/stats.hpp"

#include <cmath>

namespace mann::numeric {

float geometric_mean(std::span<const float> values) noexcept {
  if (values.empty()) {
    return 0.0F;
  }
  double acc = 0.0;
  for (float v : values) {
    if (v <= 0.0F) {
      return 0.0F;
    }
    acc += std::log(static_cast<double>(v));
  }
  return static_cast<float>(
      std::exp(acc / static_cast<double>(values.size())));
}

}  // namespace mann::numeric
