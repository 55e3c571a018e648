// Inference thresholding — the paper's Algorithm 1.
//
// A data-based approximate maximum-inner-product search for the output
// layer: probe classes one at a time (exactly how the OUTPUT module
// computes logits sequentially), and stop as soon as a logit clears its
// class-specific threshold θ_i. Thresholds come from Bayes over KDE-fitted
// class-conditional logit densities (Steps 1-2); the probe order comes
// from per-class silhouette coefficients (Step 3) so the most separable
// classes are tried first.
//
// Steps 1-3 are training-time work: runtime::prepare_suite_cached stores
// the tables beside each cached model and reads them back instead of
// recalibrating (MAGPIE's move generator likewise loads prebuilt tables
// rather than rebuilding them at start).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "data/types.hpp"
#include "model/memn2n.hpp"

namespace mann::core {

/// Calibration hyper-parameters.
struct IthConfig {
  /// Thresholding constant ρ of Eq. 8. Posterior must reach at least this
  /// value for a logit to trigger an early exit. ρ > 1 disables
  /// thresholding for every class (useful as an explicit off switch).
  float rho = 1.0F;

  /// Gaussian-KDE bandwidth; <= 0 selects Silverman's rule per class.
  float kde_bandwidth = 0.0F;

  /// Classes with fewer correct positive observations than this never get
  /// a threshold (their θ_i stays +inf and they cannot early-exit).
  std::size_t min_positive_samples = 5;

  /// Weight the two class-conditional densities by the label priors
  /// p(y=i) when forming the posterior (the literal Eq. 7). With ~30
  /// answer classes the prior of any single class is ~0.03, which pushes
  /// the posterior below ρ everywhere the negative density is nonzero —
  /// the threshold constant then has no effect in [0.9, 1.0], contradicting
  /// the sensitivity Fig. 3 reports. The default (false) uses the
  /// likelihood ratio p(z|y=i) / (p(z|y=i) + p(z|y≠i)), the reading of
  /// the paper's "∝" that reproduces Fig. 3.
  bool use_priors = false;

  /// Support truncation of the negative density p(z_i | y != i): beyond
  /// `support_sigmas` bandwidths outside the observed negative range the
  /// density is treated as exactly zero, as a histogram estimate would be.
  /// Without this a Gaussian kernel's infinite tails keep the posterior
  /// below 1 everywhere and ρ = 1.0 (the paper's operating point) would
  /// almost never fire. The default margin of one bandwidth keeps the
  /// measured accuracy drop at ρ = 1.0 under the paper's 0.1% budget
  /// (see bench/ablate_ith_calibration).
  float support_sigmas = 1.0F;
};

/// Version of calibrate()'s output. Bump it whenever the same model,
/// training split and IthConfig would calibrate to different tables:
/// stored ITH records carrying another version are recalibrated.
inline constexpr std::uint32_t kCalibrationVersion = 1;

/// Step 1's observations over a training split.
struct LogitPopulations {
  /// HG_i: z_i over the stories correctly predicted as class i.
  std::vector<std::vector<float>> positive;
  /// HG_ī: z_i over the stories correctly predicted as another class.
  std::vector<std::vector<float>> negative;
  /// Training-label priors p(y = i), over every story.
  std::vector<float> priors;
};

/// Algorithm 1, Step 1: one float forward pass per training story. Only
/// stories the model predicts correctly contribute logits (as in the
/// paper).
[[nodiscard]] LogitPopulations collect_logits(
    const model::MemN2N& model, std::span<const data::EncodedStory> training);

/// Outcome of one thresholded inference (Algo. 1, Step 4).
struct ThresholdedResult {
  std::size_t prediction = 0;
  std::size_t comparisons = 0;  ///< output-layer dot products performed
  bool early_exit = false;      ///< true when a threshold fired
};

/// Calibrated state: what the device and evaluation read (thresholds,
/// probe order) and what an ITH record stores beside them.
class InferenceThresholding {
 public:
  InferenceThresholding() = default;

  /// Tables calibrated earlier (an ITH record read back). Throws
  /// std::invalid_argument unless every table holds one entry per class
  /// and `probe_order` is a permutation of the classes.
  InferenceThresholding(IthConfig config, std::vector<float> thresholds,
                        std::vector<std::size_t> probe_order,
                        std::vector<float> silhouettes,
                        std::vector<float> priors);

  /// Runs Steps 1-3 of Algorithm 1 on the training split.
  /// The model must already be trained.
  static InferenceThresholding calibrate(
      const model::MemN2N& model,
      std::span<const data::EncodedStory> training, const IthConfig& config);

  /// Step 4: sequential output-layer probe with early exit.
  /// `use_index_ordering == false` probes classes in natural index order —
  /// the "ITH w/o index ordering" ablation of Fig. 3.
  [[nodiscard]] ThresholdedResult predict(
      const model::MemN2N& model, const data::EncodedStory& story,
      bool use_index_ordering = true) const;

  /// Same as predict() but starting from precomputed features h^H
  /// (used by the accelerator, which owns the rest of the pipeline).
  [[nodiscard]] ThresholdedResult predict_from_features(
      const model::MemN2N& model, std::span<const float> features,
      bool use_index_ordering = true) const;

  [[nodiscard]] const IthConfig& config() const noexcept { return config_; }

  /// θ_i per class; +inf when the class never early-exits.
  [[nodiscard]] const std::vector<float>& thresholds() const noexcept {
    return thresholds_;
  }

  /// Probe order (class indices sorted by descending silhouette).
  [[nodiscard]] const std::vector<std::size_t>& probe_order() const noexcept {
    return order_;
  }

  /// Per-class average silhouette coefficient S_i.
  [[nodiscard]] const std::vector<float>& silhouettes() const noexcept {
    return silhouettes_;
  }

  /// Training-label priors p(y = i).
  [[nodiscard]] const std::vector<float>& priors() const noexcept {
    return priors_;
  }

  /// Number of classes holding a finite threshold.
  [[nodiscard]] std::size_t active_classes() const noexcept;

  [[nodiscard]] std::size_t num_classes() const noexcept {
    return thresholds_.size();
  }

  static constexpr float kNoThreshold =
      std::numeric_limits<float>::infinity();

 private:
  IthConfig config_;
  std::vector<float> thresholds_;
  std::vector<std::size_t> order_;
  std::vector<float> silhouettes_;
  std::vector<float> priors_;
};

}  // namespace mann::core
