// Gaussian kernel density estimation.
//
// Algorithm 1, Step 1 estimates the class-conditional logit densities
// p(z_i | y = i) from the training histograms "by kernel density
// estimation". This is that estimator: a Gaussian-kernel KDE over the raw
// samples, with Silverman's rule-of-thumb bandwidth by default.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mann::numeric {

/// One-dimensional Gaussian KDE.
class KernelDensity {
 public:
  /// Fits a KDE to raw samples.
  /// `bandwidth <= 0` selects Silverman's rule: 1.06 * sigma * n^(-1/5)
  /// (floored at a small epsilon so degenerate constant samples still
  /// yield a usable, sharply-peaked density).
  explicit KernelDensity(std::span<const float> samples,
                         float bandwidth = 0.0F);

  /// Density estimate p(x). Returns 0 when fitted on no data.
  [[nodiscard]] float operator()(float x) const noexcept;

  [[nodiscard]] float bandwidth() const noexcept { return bandwidth_; }
  [[nodiscard]] bool empty() const noexcept { return centers_.empty(); }

 private:
  std::vector<float> centers_;  ///< the samples
  float bandwidth_ = 1.0F;
};

}  // namespace mann::numeric
