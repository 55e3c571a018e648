#include "cluster/router.hpp"

#include <algorithm>
#include <stdexcept>

namespace mann::cluster {

namespace {

/// (queue depth, pending cost, id) — the least-loaded comparison. The id
/// tiebreak keeps decisions total-ordered and therefore reproducible.
[[nodiscard]] bool less_loaded(const InstanceStatus& a,
                               const InstanceStatus& b) noexcept {
  if (a.queue_depth != b.queue_depth) {
    return a.queue_depth < b.queue_depth;
  }
  if (a.pending_cost_cycles != b.pending_cost_cycles) {
    return a.pending_cost_cycles < b.pending_cost_cycles;
  }
  return a.id < b.id;
}

/// Consistent-hash task affinity with ring-order spill (see router.hpp).
class TaskAffinityPolicy final : public RouterPolicy {
 public:
  explicit TaskAffinityPolicy(const RouterConfig& config)
      : spill_threshold_(config.spill_queue_threshold) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "task_affinity";
  }

  void set_topology(const std::vector<InstanceId>& active) override {
    active_count_ = active.size();
    ring_.rebuild(active);
  }

  [[nodiscard]] std::optional<InstanceId> route(
      const RouteRequest& request,
      const std::vector<InstanceStatus>& status) override {
    if (ring_.empty()) {
      return std::nullopt;
    }
    // Walk the ring clockwise from the task's owner; take the first
    // instance under the spill threshold. A fully saturated active set
    // falls back to the owner — shedding is the admission layer's call,
    // affinity routing never refuses outright.
    const std::uint64_t key = numeric::mix64(request.task);
    const std::size_t start = ring_.owner_index(key);
    const InstanceId owner = ring_.at(start);
    std::size_t seen = 0;
    for (std::size_t i = 0; i < ring_.size() && seen < active_count_; ++i) {
      const InstanceId candidate = ring_.at(start + i);
      if (i > 0 && candidate == ring_.at(start + i - 1)) {
        continue;  // same instance's adjacent virtual nodes
      }
      ++seen;
      if (status[candidate].queue_depth < spill_threshold_) {
        return candidate;
      }
    }
    return owner;
  }

 private:
  HashRing ring_;
  std::size_t spill_threshold_;
  std::size_t active_count_ = 0;
};

/// Power-of-two-choices least-loaded (see router.hpp).
class PowerOfTwoPolicy final : public RouterPolicy {
 public:
  explicit PowerOfTwoPolicy(const RouterConfig& config) : rng_(config.seed) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "power_of_two";
  }

  void set_topology(const std::vector<InstanceId>& active) override {
    active_ = active;
  }

  [[nodiscard]] std::optional<InstanceId> route(
      const RouteRequest&,
      const std::vector<InstanceStatus>& status) override {
    if (active_.empty()) {
      return std::nullopt;
    }
    if (active_.size() == 1) {
      return active_.front();
    }
    // Two distinct uniform draws; the second re-rolls over n-1 slots to
    // stay collision-free with a fixed draw count per decision (a
    // variable draw count would couple later decisions to earlier load).
    const std::size_t first = rng_.index(active_.size());
    std::size_t second = rng_.index(active_.size() - 1);
    if (second >= first) {
      ++second;
    }
    const InstanceStatus& a = status[active_[first]];
    const InstanceStatus& b = status[active_[second]];
    return less_loaded(a, b) ? a.id : b.id;
  }

 private:
  numeric::Rng rng_;
  std::vector<InstanceId> active_;
};

/// Tenant home + designated spill set (see router.hpp).
class TenantSpillPolicy final : public RouterPolicy {
 public:
  explicit TenantSpillPolicy(const RouterConfig& config)
      : spill_threshold_(config.spill_queue_threshold),
        tenant_home_(config.tenant_home) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "tenant_spill";
  }

  void set_topology(const std::vector<InstanceId>& active) override {
    active_ = active;
  }

  [[nodiscard]] std::optional<InstanceId> route(
      const RouteRequest& request,
      const std::vector<InstanceStatus>& status) override {
    if (active_.empty()) {
      return std::nullopt;
    }
    // Home: the configured map, else tenant % active_count. A configured
    // home that is currently parked degrades to the modulo placement so
    // autoscaling never strands a tenant.
    std::size_t home_slot = request.tenant % active_.size();
    if (!tenant_home_.empty()) {
      const InstanceId configured =
          tenant_home_[request.tenant % tenant_home_.size()];
      const auto it =
          std::find(active_.begin(), active_.end(), configured);
      if (it != active_.end()) {
        home_slot = static_cast<std::size_t>(it - active_.begin());
      }
    }
    // Home first; overflow walks the tenant's spill set — the remaining
    // active instances in ring order after the home — and only a fully
    // saturated set sheds at the router.
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const InstanceId candidate =
          active_[(home_slot + i) % active_.size()];
      if (status[candidate].queue_depth < spill_threshold_) {
        return candidate;
      }
    }
    return std::nullopt;
  }

 private:
  std::size_t spill_threshold_;
  std::vector<InstanceId> tenant_home_;
  std::vector<InstanceId> active_;
};

}  // namespace

std::unique_ptr<RouterPolicy> make_router_policy(const RouterConfig& config) {
  switch (config.kind) {
    case RouterPolicyKind::kTaskAffinity:
      return std::make_unique<TaskAffinityPolicy>(config);
    case RouterPolicyKind::kPowerOfTwo:
      return std::make_unique<PowerOfTwoPolicy>(config);
    case RouterPolicyKind::kTenantSpill:
      return std::make_unique<TenantSpillPolicy>(config);
  }
  throw std::invalid_argument("make_router_policy: unknown policy kind");
}

void HashRing::rebuild(const std::vector<InstanceId>& instances) {
  ring_.clear();
  ring_.reserve(instances.size() * kVirtualNodes);
  for (const InstanceId instance : instances) {
    for (std::size_t replica = 0; replica < kVirtualNodes; ++replica) {
      // Replica points hash (instance, replica) so an instance's arcs
      // are fixed for the lifetime of the cluster: adding or removing
      // another instance never moves them.
      const std::uint64_t h = numeric::mix64(
          numeric::mix64(instance) ^ (replica * 0x9E3779B97F4A7C15ULL + 1));
      ring_.emplace_back(h, instance);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t HashRing::owner_index(std::uint64_t key) const {
  if (ring_.empty()) {
    throw std::logic_error("HashRing: owner of an empty ring");
  }
  const std::uint64_t h = numeric::mix64(key);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, InstanceId>& node,
         std::uint64_t value) { return node.first < value; });
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

InstanceId HashRing::owner(std::uint64_t key) const {
  return ring_[owner_index(key)].second;
}

}  // namespace mann::cluster
