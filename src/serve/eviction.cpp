#include "serve/eviction.hpp"

#include <stdexcept>
#include <tuple>

namespace mann::serve {

namespace {

/// Shared argmin over a strict-weak-order key; candidates are slot-id
/// ordered, so "first minimum wins" is the lowest-slot tie-break.
template <typename KeyFn>
[[nodiscard]] std::size_t argmin(
    std::span<const EvictionCandidate> candidates, KeyFn key) {
  if (candidates.empty()) {
    throw std::invalid_argument("EvictionPolicy: no candidates");
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (key(candidates[i]) < key(candidates[best])) {
      best = i;
    }
  }
  return best;
}

/// Decorator counting picks into an obs counter; the wrapped policy's
/// name and choices pass through untouched, so determinism is preserved.
class CountingEviction final : public EvictionPolicy {
 public:
  CountingEviction(std::unique_ptr<EvictionPolicy> inner,
                   obs::Counter* victims)
      : inner_(std::move(inner)), victims_(victims) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t pick_victim(
      std::span<const EvictionCandidate> candidates) const override {
    obs::add(victims_);
    return inner_->pick_victim(candidates);
  }

 private:
  std::unique_ptr<EvictionPolicy> inner_;
  obs::Counter* victims_;
};

}  // namespace

std::size_t LruEviction::pick_victim(
    std::span<const EvictionCandidate> candidates) const {
  return argmin(candidates, [](const EvictionCandidate& c) {
    return c.last_dispatch_cycle;
  });
}

std::size_t CostAwareEviction::pick_victim(
    std::span<const EvictionCandidate> candidates) const {
  return argmin(candidates, [](const EvictionCandidate& c) {
    return std::make_tuple(c.reload_cycles, c.last_dispatch_cycle);
  });
}

std::unique_ptr<EvictionPolicy> make_eviction_policy(
    EvictionPolicyKind kind, obs::MetricsRegistry* metrics) {
  std::unique_ptr<EvictionPolicy> policy;
  switch (kind) {
    case EvictionPolicyKind::kLru:
      policy = std::make_unique<LruEviction>();
      break;
    case EvictionPolicyKind::kCostAware:
      policy = std::make_unique<CostAwareEviction>();
      break;
  }
  if (policy == nullptr) {
    throw std::invalid_argument("make_eviction_policy: unknown kind");
  }
  if (metrics != nullptr) {
    policy = std::make_unique<CountingEviction>(
        std::move(policy), obs::counter(metrics, "serve.eviction.victims"));
  }
  return policy;
}

}  // namespace mann::serve
