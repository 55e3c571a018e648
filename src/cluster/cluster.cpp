#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "accel/service_cycle_cache.hpp"
#include "cluster/fleet_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"

namespace mann::cluster {

namespace {

/// Instances get disjoint request-id ranges: instance i owns
/// [i * kIdStride, (i+1) * kIdStride). Instance 0 keeps the 0-based
/// range, so a cluster-of-1 numbers requests exactly like a bare server.
constexpr serve::RequestId kIdStride = serve::RequestId{1} << 40;

}  // namespace

/// One fleet slot: the session plus its routing/energy bookkeeping.
struct Cluster::Instance {
  std::unique_ptr<serve::ServerSession> session;
  std::uint64_t routed = 0;
  bool active = true;
  /// Parked by the autoscaler but not yet observed idle — still burning
  /// watts while it drains.
  bool pending_park = false;
  sim::Cycle active_since = 0;
  sim::Cycle active_cycles = 0;  ///< closed windows only
};

Cluster::Cluster(ClusterConfig config,
                 const std::vector<serve::ServedModel>& models)
    : config_(std::move(config)),
      num_tasks_(models.size()),
      policy_(make_router_policy(config_.router)),
      autoscaler_(config_.autoscaler, std::max<std::size_t>(
                                          1, config_.instances)) {
  if (config_.instances == 0) {
    throw std::invalid_argument("Cluster: needs at least one instance");
  }
  // Callers set ServerConfig::metrics; the scheduler-level copy only
  // happens inside each ServerSession's constructor, which runs after
  // the fleet cache and pool are built here.
  obs::MetricsRegistry* metrics = config_.server.scheduler.metrics
                                      ? config_.server.scheduler.metrics
                                      : config_.server.metrics;
  if (config_.cache_segments > 0 &&
      config_.server.scheduler.cycle_cache == nullptr) {
    // Fleet-shared memoization tier: one sharded cache the whole fleet
    // dispatches through, so a workload one instance already simulated
    // replays everywhere. Built before (and destroyed after) the
    // sessions that point at it.
    const std::size_t capacity =
        std::max<std::size_t>(1, config_.server.scheduler.cache_capacity) *
        config_.instances;
    fleet_cache_ = std::make_unique<accel::ServiceCycleCache>(
        capacity, metrics, config_.cache_segments);
    config_.server.scheduler.cycle_cache = fleet_cache_.get();
  }
  if (config_.fleet_threads > 1) {
    // More threads than instances cannot help: each barrier has exactly
    // one task per instance.
    pool_ = std::make_unique<FleetPool>(
        std::min(config_.fleet_threads, config_.instances), metrics);
  }
  instances_.reserve(config_.instances);
  for (std::size_t i = 0; i < config_.instances; ++i) {
    auto instance = std::make_unique<Instance>();
    instance->session = std::make_unique<serve::ServerSession>(
        config_.server, models, static_cast<serve::RequestId>(i) * kIdStride);
    instances_.push_back(std::move(instance));
  }
  policy_->set_topology(active_set());
}

Cluster::~Cluster() = default;

std::vector<InstanceId> Cluster::active_set() const {
  std::vector<InstanceId> active;
  active.reserve(instances_.size());
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i]->active) {
      active.push_back(i);
    }
  }
  return active;
}

std::size_t Cluster::active_instances() const noexcept {
  std::size_t n = 0;
  for (const auto& instance : instances_) {
    n += instance->active ? 1 : 0;
  }
  return n;
}

std::vector<InstanceStatus> Cluster::statuses() const {
  std::vector<InstanceStatus> status;
  status.reserve(instances_.size());
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const serve::SessionInfo info = instances_[i]->session->info();
    InstanceStatus s;
    s.id = i;
    s.active = instances_[i]->active;
    s.queue_depth =
        info.batcher_pending + info.scheduler_pending + info.in_flight;
    s.pending_cost_cycles = instances_[i]->session->pending_cost_cycles();
    status.push_back(s);
  }
  return status;
}

void Cluster::settle_parked(sim::Cycle cycle) {
  for (auto& instance : instances_) {
    if (instance->pending_park && instance->session->idle()) {
      if (cycle > instance->active_since) {
        instance->active_cycles += cycle - instance->active_since;
      }
      instance->pending_park = false;
    }
  }
}

void Cluster::apply_target_active(std::size_t target, sim::Cycle cycle) {
  obs::TraceRecorder* trace = config_.server.trace;
  bool changed = false;
  // Scale up: wake the lowest-id parked instance (its model residency and
  // cycle caches survive parking — a warm restart).
  for (std::size_t i = 0;
       active_instances() < target && i < instances_.size(); ++i) {
    Instance& instance = *instances_[i];
    if (instance.active) {
      continue;
    }
    instance.active = true;
    if (instance.pending_park) {
      instance.pending_park = false;  // window never closed; keep it open
    } else {
      instance.active_since = cycle;
    }
    changed = true;
    if (trace != nullptr) {
      trace->instant(obs::Domain::kSim, obs::kTrackRouter, "scale", cycle,
                     "up", static_cast<std::int64_t>(i));
    }
  }
  // Scale down: park the highest-id active instance; it drains what it
  // holds and its active window closes when it is observed idle.
  for (std::size_t i = instances_.size();
       active_instances() > target && i > 0; --i) {
    Instance& instance = *instances_[i - 1];
    if (!instance.active) {
      continue;
    }
    instance.active = false;
    instance.pending_park = true;
    changed = true;
    if (trace != nullptr) {
      trace->instant(obs::Domain::kSim, obs::kTrackRouter, "scale", cycle,
                     "down", static_cast<std::int64_t>(i - 1));
    }
  }
  if (changed) {
    policy_->set_topology(active_set());
  }
}

void Cluster::check_submit(const serve::SubmitRequest& request) const {
  // Instances share one template, so one check covers all.
  instances_.front()->session->check_submit(request);
}

Cluster::Submission Cluster::submit(const serve::SubmitRequest& request) {
  if (finalized_) {
    throw std::logic_error("Cluster: submit after finalize()");
  }
  // Refuse before any state moves: a request every instance would reject
  // must not count as offered, wake the autoscaler or draw from the
  // router's RNG.
  check_submit(request);
  const sim::Cycle at =
      std::max({request.at_cycle, clock_, last_arrival_});
  if (const auto target = autoscaler_.observe(at, active_instances())) {
    apply_target_active(*target, at);
  }
  ++offered_;
  RouteRequest route{request.task, request.tenant, at};
  const std::optional<InstanceId> choice = policy_->route(route, statuses());
  obs::TraceRecorder* trace = config_.server.trace;
  if (!choice) {
    ++router_shed_;
    if (trace != nullptr) {
      trace->instant(obs::Domain::kSim, obs::kTrackRouter, "router_shed", at,
                     policy_->name(),
                     static_cast<std::int64_t>(request.task),
                     static_cast<std::int64_t>(request.tenant));
    }
    return {std::nullopt, 0};
  }
  Instance& instance = *instances_[*choice];
  serve::SubmitRequest forwarded = request;
  forwarded.at_cycle = at;
  const serve::RequestId id = instance.session->submit(forwarded);
  ++instance.routed;
  last_arrival_ = at;
  if (trace != nullptr) {
    trace->instant(obs::Domain::kSim,
                   obs::kTrackInstanceBase +
                       static_cast<std::uint32_t>(*choice),
                   "route", at, policy_->name(),
                   static_cast<std::int64_t>(request.task),
                   static_cast<std::int64_t>(request.tenant), id);
  }
  return {choice, id};
}

bool Cluster::step_until(sim::Cycle limit) {
  const std::size_t n = instances_.size();
  bool quiescent = true;
  sim::Cycle reached = limit;
  if (pool_ != nullptr) {
    // Fan the advance out across the fleet pool: between barriers the
    // sessions share no mutable state (obs sinks are thread-safe, a
    // shared cycle cache is internally locked), and each task writes
    // only its own slot, so the join-then-fold below reads exactly what
    // a sequential walk would have computed — in the same order.
    std::vector<unsigned char> quiet(n, 1);
    std::vector<sim::Cycle> now(n, 0);
    pool_->run(n, [&](std::size_t i) {
      serve::ServerSession& session = *instances_[i]->session;
      quiet[i] = session.step_until(limit) ? 1 : 0;
      now[i] = session.now();
    });
    for (std::size_t i = 0; i < n; ++i) {
      quiescent = quiet[i] != 0 && quiescent;
      if (limit == sim::kNever) {
        reached = std::max(reached == sim::kNever ? 0 : reached, now[i]);
      }
    }
  } else {
    for (auto& instance : instances_) {
      quiescent = instance->session->step_until(limit) && quiescent;
      if (limit == sim::kNever) {
        reached = std::max(reached == sim::kNever ? 0 : reached,
                           instance->session->now());
      }
    }
  }
  clock_ = std::max(clock_, reached == sim::kNever ? clock_ : reached);
  settle_parked(clock_);
  return quiescent;
}

void Cluster::drain() {
  for (auto& instance : instances_) {
    instance->session->drain();
  }
}

std::vector<ClusterCompletion> Cluster::poll_completions() {
  std::vector<ClusterCompletion> merged;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    for (serve::Completion& completion :
         instances_[i]->session->poll_completions()) {
      if (serve::outcome_is_completion(completion.outcome)) {
        latency_samples_.push_back(completion.response.latency_cycles());
        queue_wait_samples_.push_back(completion.response.queue_cycles());
      }
      merged.push_back({i, std::move(completion)});
    }
  }
  // Per-instance windows are already (cycle, id)-sorted; one global sort
  // interleaves the fleet deterministically (ids are disjoint, so the
  // (cycle, id) key is unique).
  std::sort(merged.begin(), merged.end(),
            [](const ClusterCompletion& a, const ClusterCompletion& b) {
              if (a.completion.cycle != b.completion.cycle) {
                return a.completion.cycle < b.completion.cycle;
              }
              return a.completion.response.id < b.completion.response.id;
            });
  return merged;
}

ClusterReport Cluster::finalize() {
  if (finalized_) {
    throw std::logic_error("Cluster: finalize() called twice");
  }
  drain();
  step_until(sim::kNever);
  (void)poll_completions();  // fold the tail into the percentile samples
  finalized_ = true;
  std::vector<serve::ServingReport> reports;
  reports.reserve(instances_.size());
  sim::Cycle fleet_makespan = 0;
  for (auto& instance : instances_) {
    reports.push_back(instance->session->finalize());
    fleet_makespan = std::max(fleet_makespan, reports.back().makespan_cycles);
  }
  // Close the remaining active windows: the fleet is powered until its
  // last completion (an idle-but-active instance is the fixed fleet's
  // whole energy problem).
  for (auto& instance : instances_) {
    if (instance->active || instance->pending_park) {
      if (fleet_makespan > instance->active_since) {
        instance->active_cycles += fleet_makespan - instance->active_since;
      }
      instance->pending_park = false;
    }
  }
  return aggregate(std::move(reports), fleet_makespan);
}

ClusterReport Cluster::aggregate(std::vector<serve::ServingReport> reports,
                                 sim::Cycle fleet_makespan) {
  const double clock_hz = config_.server.accel.clock_hz;
  ClusterReport out;
  out.instances = instances_.size();
  out.policy = policy_->name();
  out.offered = offered_;
  out.router_shed = router_shed_;
  out.makespan_cycles = fleet_makespan;
  out.seconds = static_cast<double>(fleet_makespan) / clock_hz;
  out.scale_ups = autoscaler_.scale_ups();
  out.scale_downs = autoscaler_.scale_downs();

  std::uint64_t batches_out = 0;
  sim::Cycle active_cycle_sum = 0;
  const double device_watts =
      config_.server.power.static_watts +
      config_.server.power.clock_watts_per_hz * clock_hz;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    serve::ServingReport& report = reports[i];
    out.completed += report.completed;
    out.rejected += report.rejected;
    out.deadline_total += report.deadline_total;
    out.deadline_missed += report.deadline_missed;
    out.model_uploads += report.model_uploads;
    batches_out += report.batching.batches_out;
    active_cycle_sum += instances_[i]->active_cycles;

    out.energy.dynamic_joules += report.energy.dynamic_joules;
    out.energy.link_joules += report.energy.link_joules;
    const double active_seconds =
        static_cast<double>(instances_[i]->active_cycles) / clock_hz;
    out.energy.static_joules +=
        device_watts * active_seconds *
        static_cast<double>(report.devices.size());

    InstanceReport slice;
    slice.id = i;
    slice.routed = instances_[i]->routed;
    slice.active_cycles = instances_[i]->active_cycles;
    slice.report = std::move(report);
    out.instance_reports.push_back(std::move(slice));
  }
  out.energy.total_joules = out.energy.dynamic_joules +
                            out.energy.link_joules +
                            out.energy.static_joules;
  if (out.seconds > 0.0) {
    out.energy.mean_watts = out.energy.total_joules / out.seconds;
    out.throughput_stories_per_second =
        static_cast<double>(out.completed) / out.seconds;
  }
  if (out.completed > 0) {
    out.energy.per_inference_joules =
        out.energy.total_joules / static_cast<double>(out.completed);
  }
  out.deadline_hit_rate =
      out.deadline_total == 0
          ? 1.0
          : 1.0 - static_cast<double>(out.deadline_missed) /
                      static_cast<double>(out.deadline_total);
  std::vector<double> completions;
  completions.reserve(out.instance_reports.size());
  for (const InstanceReport& slice : out.instance_reports) {
    completions.push_back(static_cast<double>(slice.report.completed));
  }
  out.instance_fairness = serve::jain_index(completions);
  if (batches_out > 0) {
    out.warm_dispatch_rate =
        1.0 - static_cast<double>(out.model_uploads) /
                  static_cast<double>(batches_out);
  }
  if (fleet_makespan > 0) {
    out.mean_active_instances =
        static_cast<double>(active_cycle_sum) /
        static_cast<double>(fleet_makespan);
  }
  out.latency =
      serve::summarize_latency(std::move(latency_samples_), clock_hz);
  out.queue_wait =
      serve::summarize_latency(std::move(queue_wait_samples_), clock_hz);
  latency_samples_.clear();
  queue_wait_samples_.clear();
  return out;
}

ClusterReport Cluster::run(std::size_t total_requests) {
  serve::drive_closed_loop(*this, config_.server.traffic, num_tasks_,
                           total_requests);
  return finalize();
}

void Cluster::set_tenant(serve::TenantId tenant,
                         const serve::TenantConfig& config) {
  for (auto& instance : instances_) {
    instance->session->set_tenant(tenant, config);
  }
}

void Cluster::set_slo(const serve::SloConfig& slo) {
  for (auto& instance : instances_) {
    instance->session->set_slo(slo);
  }
}

bool Cluster::set_policy(serve::SchedulerPolicy policy) {
  bool ok = true;
  for (auto& instance : instances_) {
    ok = instance->session->set_policy(policy) && ok;
  }
  return ok;
}

bool Cluster::idle() const {
  for (const auto& instance : instances_) {
    if (!instance->session->idle()) {
      return false;
    }
  }
  return true;
}

ClusterInfo Cluster::info() const {
  ClusterInfo info;
  info.instances = instances_.size();
  info.active = active_instances();
  info.offered = offered_;
  info.router_shed = router_shed_;
  info.cycle = clock_;
  info.per_instance.reserve(instances_.size());
  for (const auto& instance : instances_) {
    info.per_instance.push_back(instance->session->info());
  }
  return info;
}

const char* Cluster::policy_name() const noexcept { return policy_->name(); }

namespace {

[[nodiscard]] bool summaries_identical(const serve::LatencySummary& a,
                                       const serve::LatencySummary& b) {
  // Exact double equality on purpose: both sides fold the same merged
  // stream in the same order, so any drift is a determinism bug.
  return a.mean_cycles == b.mean_cycles && a.p50_cycles == b.p50_cycles &&
         a.p95_cycles == b.p95_cycles && a.p99_cycles == b.p99_cycles &&
         a.max_cycles == b.max_cycles;
}

}  // namespace

bool simulated_cluster_reports_identical(const ClusterReport& a,
                                         const ClusterReport& b) {
  if (!(a.instances == b.instances && a.policy == b.policy &&
        a.offered == b.offered && a.completed == b.completed &&
        a.rejected == b.rejected && a.router_shed == b.router_shed &&
        a.makespan_cycles == b.makespan_cycles &&
        summaries_identical(a.latency, b.latency) &&
        summaries_identical(a.queue_wait, b.queue_wait) &&
        a.deadline_total == b.deadline_total &&
        a.deadline_missed == b.deadline_missed &&
        a.instance_fairness == b.instance_fairness &&
        a.model_uploads == b.model_uploads &&
        a.warm_dispatch_rate == b.warm_dispatch_rate &&
        a.energy.dynamic_joules == b.energy.dynamic_joules &&
        a.energy.link_joules == b.energy.link_joules &&
        a.energy.static_joules == b.energy.static_joules &&
        a.energy.per_inference_joules == b.energy.per_inference_joules &&
        a.mean_active_instances == b.mean_active_instances &&
        a.scale_ups == b.scale_ups && a.scale_downs == b.scale_downs &&
        a.instance_reports.size() == b.instance_reports.size())) {
    return false;
  }
  for (std::size_t i = 0; i < a.instance_reports.size(); ++i) {
    const InstanceReport& ia = a.instance_reports[i];
    const InstanceReport& ib = b.instance_reports[i];
    if (!(ia.id == ib.id && ia.routed == ib.routed &&
          ia.active_cycles == ib.active_cycles &&
          serve::simulated_reports_identical(ia.report, ib.report))) {
      return false;
    }
  }
  return true;
}

}  // namespace mann::cluster
