#include "core/ith.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "numeric/kde.hpp"
#include "numeric/silhouette.hpp"
#include "numeric/vector_ops.hpp"

namespace mann::core {

LogitPopulations collect_logits(const model::MemN2N& model,
                                std::span<const data::EncodedStory> training) {
  const std::size_t classes = model.config().vocab_size;
  LogitPopulations logits;
  logits.positive.assign(classes, {});
  logits.negative.assign(classes, {});
  logits.priors.assign(classes, 0.0F);

  std::vector<std::size_t> label_counts(classes, 0);
  for (const data::EncodedStory& story : training) {
    const auto label = static_cast<std::size_t>(story.answer);
    ++label_counts[label];
    const model::ForwardTrace trace = model.forward(story);
    if (trace.prediction != label) {
      continue;
    }
    for (std::size_t i = 0; i < classes; ++i) {
      if (i == label) {
        logits.positive[i].push_back(trace.logits[i]);
      } else {
        logits.negative[i].push_back(trace.logits[i]);
      }
    }
  }
  if (!training.empty()) {
    for (std::size_t i = 0; i < classes; ++i) {
      logits.priors[i] = static_cast<float>(label_counts[i]) /
                         static_cast<float>(training.size());
    }
  }
  return logits;
}

InferenceThresholding::InferenceThresholding(
    IthConfig config, std::vector<float> thresholds,
    std::vector<std::size_t> probe_order, std::vector<float> silhouettes,
    std::vector<float> priors)
    : config_(config),
      thresholds_(std::move(thresholds)),
      order_(std::move(probe_order)),
      silhouettes_(std::move(silhouettes)),
      priors_(std::move(priors)) {
  const std::size_t classes = thresholds_.size();
  if (order_.size() != classes || silhouettes_.size() != classes ||
      priors_.size() != classes) {
    throw std::invalid_argument(
        "InferenceThresholding: tables differ in class count");
  }
  std::vector<bool> seen(classes, false);
  for (const std::size_t cls : order_) {
    if (cls >= classes || seen[cls]) {
      throw std::invalid_argument(
          "InferenceThresholding: probe order is not a permutation");
    }
    seen[cls] = true;
  }
}

InferenceThresholding InferenceThresholding::calibrate(
    const model::MemN2N& model, std::span<const data::EncodedStory> training,
    const IthConfig& config) {
  const std::size_t classes = model.config().vocab_size;
  // Step 1: logit populations from correctly-predicted examples.
  LogitPopulations logits = collect_logits(model, training);
  InferenceThresholding ith;
  ith.config_ = config;
  ith.thresholds_.assign(classes, kNoThreshold);
  ith.silhouettes_.assign(classes, 0.0F);
  ith.priors_ = std::move(logits.priors);

  // Step 2: per-class threshold θ_i = min{ z ∈ HG_i : p(y=i | z) >= ρ }.
  // The posterior is the two-hypothesis Bayes ratio over the KDE-fitted
  // class-conditional densities weighted by the priors.
  for (std::size_t i = 0; i < classes; ++i) {
    const std::vector<float>& pos = logits.positive[i];
    const std::vector<float>& neg = logits.negative[i];
    if (pos.size() < config.min_positive_samples || neg.empty() ||
        config.rho > 1.0F) {
      continue;
    }
    const numeric::KernelDensity pos_kde(pos, config.kde_bandwidth);
    const numeric::KernelDensity neg_kde(neg, config.kde_bandwidth);
    const float w_pos = config.use_priors ? ith.priors_[i] : 0.5F;
    const float w_neg = 1.0F - w_pos;

    // Compact support of the negative population (histogram semantics):
    // outside it the negative likelihood is exactly zero and the
    // posterior saturates at 1, which is what lets ρ = 1.0 fire.
    const auto [neg_min_it, neg_max_it] =
        std::minmax_element(neg.begin(), neg.end());
    const float margin = config.support_sigmas * neg_kde.bandwidth();
    const float neg_lo = *neg_min_it - margin;
    const float neg_hi = *neg_max_it + margin;

    // Eq. 8: θ_i = min{ z ∈ observed logits of index i : posterior >= ρ }.
    // The candidate set is every observed z_i (HG_i and HG_ī): at ρ = 1
    // only the zero-negative-density zone qualifies; as ρ drops the
    // threshold descends into the class-overlap region, trading accuracy
    // for earlier exits (Fig. 3's x-axis).
    auto posterior_at = [&](float z) {
      const float p_pos = w_pos * pos_kde(z);
      const float p_neg =
          (z < neg_lo || z > neg_hi) ? 0.0F : w_neg * neg_kde(z);
      const float denom = p_pos + p_neg;
      return denom > 0.0F ? p_pos / denom : -1.0F;
    };
    float theta = kNoThreshold;
    for (const std::vector<float>* samples : {&pos, &neg}) {
      for (const float z : *samples) {
        if (z < theta && posterior_at(z) >= config.rho) {
          theta = z;
        }
      }
    }
    ith.thresholds_[i] = theta;
  }

  // Step 3: probe order by descending silhouette coefficient of HG_i
  // against HG_ī.
  for (std::size_t i = 0; i < classes; ++i) {
    ith.silhouettes_[i] =
        numeric::average_silhouette(logits.positive[i], logits.negative[i]);
  }
  ith.order_.resize(classes);
  std::iota(ith.order_.begin(), ith.order_.end(), std::size_t{0});
  std::stable_sort(ith.order_.begin(), ith.order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ith.silhouettes_[a] > ith.silhouettes_[b];
                   });
  return ith;
}

std::size_t InferenceThresholding::active_classes() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(thresholds_.begin(), thresholds_.end(),
                    [](float t) { return t != kNoThreshold; }));
}

ThresholdedResult InferenceThresholding::predict_from_features(
    const model::MemN2N& model, std::span<const float> features,
    bool use_index_ordering) const {
  const numeric::Matrix& w_o = model.params().w_o;
  const std::size_t classes = w_o.rows();
  ThresholdedResult result;

  // Step 4: probe classes; each probe is one dot product + one compare,
  // mirroring the OUTPUT module's sequential datapath.
  std::vector<float> logits(classes, 0.0F);
  for (std::size_t rank = 0; rank < classes; ++rank) {
    const std::size_t cls = use_index_ordering ? order_[rank] : rank;
    logits[cls] = numeric::dot(w_o.row(cls), features);
    ++result.comparisons;
    if (logits[cls] > thresholds_[cls]) {
      result.prediction = cls;
      result.early_exit = true;
      return result;
    }
  }
  // Fallback: full argmax (every logit has been computed by now).
  result.prediction = numeric::argmax(logits);
  return result;
}

ThresholdedResult InferenceThresholding::predict(
    const model::MemN2N& model, const data::EncodedStory& story,
    bool use_index_ordering) const {
  const std::vector<float> features = model.forward_features(story);
  return predict_from_features(model, features, use_index_ordering);
}

}  // namespace mann::core
