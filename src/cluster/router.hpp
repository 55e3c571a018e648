// Cluster request routing: which server instance serves each arrival.
//
// A Router sits in front of N serve::ServerSession instances (see
// cluster.hpp) and maps every arriving request to one of them — or
// refuses it at the door when the policy's spill options are exhausted.
// Three policies ship behind the RouterPolicy interface:
//
//   kTaskAffinity  consistent-hash ring keyed by task id. The same task
//                  always lands on the same instance (until the active
//                  set changes), so each instance serves a small stable
//                  task subset and its device pool stays residency-warm:
//                  fewer model uploads, more warm-variant dispatches.
//                  Overflow spills ring-order to the next instance under
//                  the queue threshold, preserving ring locality.
//   kPowerOfTwo    power-of-two-choices least-loaded: sample two distinct
//                  active instances with the router's seeded RNG and take
//                  the one with the smaller (queue depth, pending cost)
//                  — the classic O(1) balancer whose max load is
//                  exponentially better than random assignment.
//   kTenantSpill   tenant-aware spill: every tenant has a home instance
//                  (isolation by default) and overflow routes through the
//                  tenant's designated spill set in order; only when the
//                  whole set is saturated is the request shed *at the
//                  router* (surfaced separately from instance-level
//                  sheds).
//
// Determinism contract: route() decides from simulated state only — the
// per-instance InstanceStatus snapshots are pure functions of the
// simulated timeline, and the kPowerOfTwo RNG is seeded — so for a fixed
// seed the full assignment sequence is byte-identical for any host
// worker count or machine. The tests assert exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "numeric/random.hpp"
#include "serve/tenant.hpp"
#include "sim/types.hpp"

namespace mann::cluster {

using InstanceId = std::size_t;

/// Load snapshot of one instance at a routing decision point. All fields
/// are simulated quantities (see the determinism contract above).
struct InstanceStatus {
  InstanceId id = 0;
  bool active = true;  ///< autoscaler wants it serving new work
  /// Requests inside the instance: batcher lanes + scheduler queue
  /// (stories) + dispatched-but-incomplete.
  std::size_t queue_depth = 0;
  /// Pending work under the scheduler's cost model, in cycles.
  sim::Cycle pending_cost_cycles = 0;
};

/// One arrival, as the router sees it.
struct RouteRequest {
  std::size_t task = 0;
  serve::TenantId tenant = 0;
  sim::Cycle cycle = 0;  ///< arrival cycle (the decision timestamp)
};

enum class RouterPolicyKind : std::uint8_t {
  kTaskAffinity,  ///< consistent-hash task affinity
  kPowerOfTwo,    ///< power-of-two-choices least-loaded
  kTenantSpill,   ///< tenant home + designated spill set
};

struct RouterConfig {
  RouterPolicyKind kind = RouterPolicyKind::kPowerOfTwo;
  /// Seeds the kPowerOfTwo sampler (the other policies are RNG-free).
  std::uint64_t seed = 2019;
  /// Queue depth at which kTaskAffinity / kTenantSpill consider an
  /// instance saturated and spill past it.
  std::size_t spill_queue_threshold = 64;
  /// kTenantSpill home instances, indexed by tenant id (wrapped). Empty =
  /// tenant t homes on active instance t % active_count.
  std::vector<InstanceId> tenant_home;
};

/// Routing strategy interface. Implementations are notified of topology
/// changes (autoscaling) via set_topology and must only ever return
/// instances from the current active set.
class RouterPolicy {
 public:
  virtual ~RouterPolicy() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Replaces the active instance set (ids ascending). Called once at
  /// startup and after every autoscaler decision.
  virtual void set_topology(const std::vector<InstanceId>& active) = 0;

  /// Picks an instance for `request`, or nullopt to shed at the router.
  /// `status` is indexed by InstanceId and covers the whole fleet
  /// (inactive instances included, so policies can see draining load).
  [[nodiscard]] virtual std::optional<InstanceId> route(
      const RouteRequest& request,
      const std::vector<InstanceStatus>& status) = 0;
};

[[nodiscard]] std::unique_ptr<RouterPolicy> make_router_policy(
    const RouterConfig& config);

/// The consistent-hash ring behind kTaskAffinity, exposed for tests and
/// tooling: owner(key) is stable under instance add/remove — only the
/// ring arcs adjacent to the changed instance move, ~K/N of K keys.
class HashRing {
 public:
  /// Ring replicas per instance. More replicas smooth the key
  /// distribution at the cost of a larger ring.
  static constexpr std::size_t kVirtualNodes = 64;

  void rebuild(const std::vector<InstanceId>& instances);
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }
  /// Instance owning `key` (first ring point clockwise of hash(key)).
  [[nodiscard]] InstanceId owner(std::uint64_t key) const;
  /// Ring position of the owner — the spill walk starts here.
  [[nodiscard]] std::size_t owner_index(std::uint64_t key) const;
  [[nodiscard]] InstanceId at(std::size_t ring_index) const {
    return ring_[ring_index % ring_.size()].second;
  }
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }

 private:
  /// (hash, instance), hash-sorted.
  std::vector<std::pair<std::uint64_t, InstanceId>> ring_;
};

}  // namespace mann::cluster
