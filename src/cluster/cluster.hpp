// mann::cluster — a routing tier over N deterministic server instances.
//
// One serve::ServerSession with a handful of device slots is a single
// cabinet; "millions of users" is a fleet. A Cluster owns N ServerSession
// instances — each a full admission → batcher → scheduler → device-pool
// stack — and steps them in lockstep on one simulated clock: every
// arrival is routed (router.hpp) to an instance *after* the whole fleet
// has been advanced to that arrival's cycle, so routing decisions see
// exactly the load a front-door would see, and the per-instance
// timelines interleave deterministically.
//
//   arrivals ──> Router ──┬──> ServerSession 0 ──┐
//     (trace /            ├──> ServerSession 1   ├──> ClusterReport
//      diurnal            ├──> ServerSession ..  │    (merged stream,
//      generator)         └──> ServerSession N-1 ┘     fleet energy)
//
// An Autoscaler (autoscaler.hpp) watches the offered load and activates/
// parks instances; the Router only assigns to the active set, and parked
// instances drain what they already hold. Fleet energy charges every
// instance's static + clock-tree watts over its *active window* — a
// fixed fleet pays idle watts through the diurnal trough, an autoscaled
// one does not, which is the J/inference comparison the bench gates.
//
// Determinism contract (the repo-wide one): every ClusterReport field
// except the host-execution block of the per-instance reports is a pure
// function of (config, models, arrival schedule). Instances get disjoint
// request-id ranges (ServerSession's first_id), so the merged completion
// stream and the shared obs trace stay globally unique, and a
// cluster-of-1 run is bit-identical to serve::run() over the same
// schedule, merged percentiles included (serve::simulated_reports_identical
// — tier-1 tests gate it). A Cluster is also the daemon's only driver:
// tools/mann_served serves through a fleet of --cluster N (default 1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/autoscaler.hpp"
#include "cluster/router.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace mann::accel {
class ServiceCycleCache;  // accel/service_cycle_cache.hpp
}  // namespace mann::accel

namespace mann::cluster {

class FleetPool;  // cluster/fleet_pool.hpp

struct ClusterConfig {
  /// Fleet size. Every instance is built from the same server template.
  std::size_t instances = 2;
  /// Per-instance template: accel/admission/batcher/scheduler/power knobs
  /// apply to each instance; traffic (arrival process, tenants, SLOs,
  /// seed) drives the closed loop in run() and the tenant/SLO registries
  /// of every instance; the obs sinks are shared fleet-wide
  /// (router events and per-instance lanes land in one trace).
  serve::ServerConfig server;
  RouterConfig router;
  AutoscalerConfig autoscaler;
  /// Host threads advancing instances between routing barriers (a
  /// cluster::FleetPool). 0 or 1 = sequential on the simulation thread;
  /// more are clamped to the fleet size. Purely a host-side knob: every
  /// simulated number is bit-identical for any value (test-gated).
  std::size_t fleet_threads = 0;
  /// When > 0, the cluster owns one accel::ServiceCycleCache with this
  /// many independently-locked segments, shared by every instance (each
  /// instance's scheduler.cycle_cache points at it; an explicitly
  /// configured server.scheduler.cycle_cache wins). Cached results are
  /// pure function values, so sharing never changes a simulated number —
  /// it only keeps fleet threads from re-simulating workloads a sibling
  /// already paid for, without serializing on one mutex. Capacity is
  /// scheduler.cache_capacity scaled by the fleet size. 0 = no fleet
  /// cache (each instance keeps whatever its template says).
  std::size_t cache_segments = 0;
};

/// One instance's slice of the cluster outcome.
struct InstanceReport {
  InstanceId id = 0;
  std::uint64_t routed = 0;  ///< requests the router assigned here
  /// Powered-on window (fleet-energy accounting): cycles between
  /// activation and observed-idle after parking; the full cluster
  /// makespan for a never-parked instance.
  sim::Cycle active_cycles = 0;
  serve::ServingReport report;
};

/// The fleet-level outcome: merged deterministic stream + fleet energy.
struct ClusterReport {
  std::size_t instances = 0;
  std::string policy;         ///< router policy name
  std::size_t offered = 0;    ///< arrivals presented to the router
  std::size_t completed = 0;
  std::size_t rejected = 0;     ///< shed inside instances (all reasons)
  std::size_t router_shed = 0;  ///< refused at the router (spill exhausted)
  sim::Cycle makespan_cycles = 0;  ///< last completion across the fleet
  double seconds = 0.0;
  double throughput_stories_per_second = 0.0;
  /// Exact nearest-rank percentiles over the *merged* completion stream
  /// (not an average of per-instance summaries), by the rule
  /// serve::ServingMetrics uses.
  serve::LatencySummary latency;
  serve::LatencySummary queue_wait;
  std::uint64_t deadline_total = 0;
  std::uint64_t deadline_missed = 0;
  double deadline_hit_rate = 1.0;
  /// Jain's index over per-instance completed counts — the cross-instance
  /// load-balance score (1.0 = perfectly even; also 1.0 below 2 actives).
  double instance_fairness = 1.0;
  std::uint64_t model_uploads = 0;  ///< summed; the residency-cold count
  /// 1 - uploads/batches: how often a dispatch found its model (and its
  /// warm cycle-cache variant) already resident. Task-affinity routing
  /// exists to maximize this.
  double warm_dispatch_rate = 0.0;
  /// Fleet energy: dynamic + link joules summed from the instances;
  /// static + clock-tree watts charged per device over each instance's
  /// *active window* (idle watts are real watts). This intentionally
  /// differs from summing the per-instance reports' static joules, which
  /// each stop at their own last completion.
  serve::ServingEnergy energy;
  double mean_active_instances = 0.0;  ///< active-cycle-weighted
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  std::vector<InstanceReport> instance_reports;  ///< id-ordered
};

/// One resolved request, tagged with the instance that served it.
/// Windows polled while arrivals are still being routed concatenate into
/// a single (cycle, id)-sorted deterministic stream across the fleet
/// (lockstep means every instance has processed exactly the events below
/// the shared horizon). The post-drain window is itself sorted, but its
/// sub-size flushes dispatch at each instance's own — possibly lagging —
/// clock, exactly as a drained ServerSession's do, so it can reach back
/// before the last pre-drain window. Per-instance subsequences are
/// always (cycle, id)-sorted ledgers end to end.
struct ClusterCompletion {
  InstanceId instance = 0;
  serve::Completion completion;
};

/// Mid-run fleet snapshot (the daemon's `info` lines).
struct ClusterInfo {
  std::size_t instances = 0;
  std::size_t active = 0;
  std::size_t offered = 0;
  std::size_t router_shed = 0;
  sim::Cycle cycle = 0;
  std::vector<serve::SessionInfo> per_instance;
};

class Cluster {
 public:
  /// `models` must outlive the cluster (every instance serves the same
  /// registry; device pools are per-instance).
  Cluster(ClusterConfig config, const std::vector<serve::ServedModel>& models);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Routed open-loop submission: instance is nullopt (and id unused)
  /// when the router shed the request. The router sees the fleet as it
  /// stands: a driver that wants routing to see every completion before
  /// the arrival steps the fleet to it first (as run() does).
  struct Submission {
    std::optional<InstanceId> instance;
    serve::RequestId id = 0;
  };
  Submission submit(const serve::SubmitRequest& request);

  /// Throws std::out_of_range, changing nothing, for a request submit()
  /// would refuse (ServerSession::check_submit's rule).
  void check_submit(const serve::SubmitRequest& request) const;

  /// The closed loop (serve::drive_closed_loop, shared with serve::run):
  /// draws `total_requests` from the traffic config, routes each arrival
  /// with the whole fleet stepped to its cycle, autoscales at epoch
  /// boundaries, then drains and finalizes. Callable once, like
  /// finalize().
  [[nodiscard]] ClusterReport run(std::size_t total_requests);

  /// Advances every instance to the exclusive cycle horizon `limit`
  /// (lockstep; sim::kNever = fleet quiescence). Returns true when every
  /// instance is quiescent.
  bool step_until(sim::Cycle limit);

  /// Sticky end-of-stream: sub-size batches flush immediately fleet-wide.
  void drain();

  [[nodiscard]] std::vector<ClusterCompletion> poll_completions();

  /// Drains, runs to quiescence, finalizes every instance and folds the
  /// ClusterReport. Callable once; run() calls it internally.
  [[nodiscard]] ClusterReport finalize();

  // ---- live reconfiguration (fans out to every instance) ----
  void set_tenant(serve::TenantId tenant, const serve::TenantConfig& config);
  void set_slo(const serve::SloConfig& slo);
  [[nodiscard]] bool set_policy(serve::SchedulerPolicy policy);

  // ---- introspection ----
  [[nodiscard]] std::size_t size() const noexcept { return instances_.size(); }
  [[nodiscard]] std::size_t active_instances() const noexcept;
  [[nodiscard]] sim::Cycle now() const noexcept { return clock_; }
  /// Arrival cycle of the most recent routed submission — the lockstep
  /// driver's exclusive step_until() horizon, as with ServerSession.
  [[nodiscard]] sim::Cycle last_submitted_arrival() const noexcept {
    return last_arrival_;
  }
  [[nodiscard]] bool idle() const;
  [[nodiscard]] ClusterInfo info() const;
  [[nodiscard]] const char* policy_name() const noexcept;

 private:
  struct Instance;

  [[nodiscard]] std::vector<InstanceStatus> statuses() const;
  [[nodiscard]] std::vector<InstanceId> active_set() const;
  void apply_target_active(std::size_t target, sim::Cycle cycle);
  void settle_parked(sim::Cycle cycle);
  [[nodiscard]] ClusterReport aggregate(
      std::vector<serve::ServingReport> reports, sim::Cycle fleet_makespan);

  ClusterConfig config_;
  std::size_t num_tasks_;  ///< run()'s closed loop draws tasks below it
  std::unique_ptr<RouterPolicy> policy_;
  Autoscaler autoscaler_;
  /// Fleet-shared cycle cache (config_.cache_segments > 0); must outlive
  /// the instances whose schedulers point at it.
  std::unique_ptr<accel::ServiceCycleCache> fleet_cache_;
  /// Host threads for step_until fan-out (config_.fleet_threads > 1).
  std::unique_ptr<FleetPool> pool_;
  std::vector<std::unique_ptr<Instance>> instances_;
  sim::Cycle clock_ = 0;         ///< highest lockstep horizon reached
  sim::Cycle last_arrival_ = 0;  ///< highest routed arrival cycle
  std::size_t offered_ = 0;
  std::size_t router_shed_ = 0;
  bool finalized_ = false;
  /// Merged-stream percentile inputs, accumulated at poll time.
  std::vector<sim::Cycle> latency_samples_;
  std::vector<sim::Cycle> queue_wait_samples_;
};

/// True when every deterministic field of the two fleet reports matches:
/// routing counts, merged-stream percentiles, deadlines, fairness,
/// energy, autoscaler decisions and each instance's simulated report
/// (serve::simulated_reports_identical per instance). Host-execution
/// fields — wall clock, cycle-cache hit rates — are excluded, exactly as
/// in the per-server predicate. This is the fleet-thread-count
/// invariance gate: reports from the same (config, models, schedule) at
/// different --fleet-threads must satisfy it bit-for-bit.
[[nodiscard]] bool simulated_cluster_reports_identical(
    const ClusterReport& a, const ClusterReport& b);

}  // namespace mann::cluster
