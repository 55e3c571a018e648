#include "numeric/kde.hpp"

#include <cmath>
#include <numbers>

namespace mann::numeric {
namespace {

constexpr float kMinBandwidth = 1e-3F;

float sample_sigma(std::span<const float> samples) noexcept {
  if (samples.empty()) {
    return 0.0F;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (float s : samples) {
    sum += s;
    sum_sq += static_cast<double>(s) * s;
  }
  const double n = static_cast<double>(samples.size());
  const double mean = sum / n;
  const double var = std::max(0.0, sum_sq / n - mean * mean);
  return static_cast<float>(std::sqrt(var));
}

}  // namespace

KernelDensity::KernelDensity(std::span<const float> samples, float bandwidth)
    : centers_(samples.begin(), samples.end()) {
  if (bandwidth > 0.0F) {
    bandwidth_ = bandwidth;
  } else if (!centers_.empty()) {
    const float n = static_cast<float>(centers_.size());
    const float silverman =
        1.06F * sample_sigma(samples) * std::pow(n, -0.2F);
    bandwidth_ = std::max(silverman, kMinBandwidth);
  }
}

float KernelDensity::operator()(float x) const noexcept {
  if (centers_.empty()) {
    return 0.0F;
  }
  const float inv_h = 1.0F / bandwidth_;
  const float norm =
      inv_h / (static_cast<float>(centers_.size()) *
               std::sqrt(2.0F * std::numbers::pi_v<float>));
  float acc = 0.0F;
  for (const float center : centers_) {
    const float u = (x - center) * inv_h;
    acc += std::exp(-0.5F * u * u);
  }
  return acc * norm;
}

}  // namespace mann::numeric
