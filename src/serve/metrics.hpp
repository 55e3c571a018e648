// Serving metrics: latency distribution, throughput, utilization,
// batching efficiency, SLO attainment, per-tenant QoS and serving
// energy, accumulated per response and folded into one ServingReport at
// the end of a run.
//
// Latencies are kept as exact cycle samples and summarized by one
// nearest-rank rule (summarize_latency), which the cluster's merged
// stream shares, so a fleet of one reports exactly what its instance
// reports.
//
// Rejection accounting is unified: every shed request — the batcher's
// full-queue rejects and the admission controller's quota/doom/overload
// decisions alike — arrives here as ShedReason-tagged ShedCounters
// (globally and per tenant), and `ServingReport::rejected` is their
// total, so there is exactly one number for "requests the stack refused"
// no matter which stage refused them.
//
// Energy: the accelerator's activity-based power model (src/power) folds
// the pool's aggregate op counts, the host-link activity and the
// static + clock-tree draw of every device over the makespan into
// joules — and joules-per-inference, the serving-level form of the
// paper's energy-efficiency claim. All inputs are simulated quantities,
// so the energy numbers are deterministic given the seed and CI can gate
// regressions on them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accel/service_cycle_cache.hpp"
#include "power/power_model.hpp"
#include "serve/batcher.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/tenant.hpp"
#include "sim/types.hpp"

namespace mann::serve {

/// Percentile summary of one latency population, in cycles and seconds.
struct LatencySummary {
  double mean_cycles = 0.0;
  double p50_cycles = 0.0;
  double p95_cycles = 0.0;
  double p99_cycles = 0.0;
  double max_cycles = 0.0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Mean and nearest-rank percentiles (the sample at rank ceil(q·n),
/// 1-based) of exact cycle samples, in cycles and seconds; all zeros when
/// there are none. Finds p50, p95, p99 and the max by successive
/// selections, each over the tail the previous one left, not by a sort.
[[nodiscard]] LatencySummary summarize_latency(std::vector<sim::Cycle> samples,
                                               double clock_hz);

/// Jain's fairness index (Σx)² / (n·Σx²), summed in order: 1.0 when every
/// x is equal (and for fewer than two samples or all zeros), approaching
/// 1/n as one sample takes everything. Serve scores tenants by
/// weight-normalized completions with it, the cluster instances by
/// completions.
[[nodiscard]] double jain_index(std::span<const double> xs);

/// SLO attainment of one served task.
struct TaskSloReport {
  std::size_t task = 0;
  std::uint64_t completed = 0;
  std::uint64_t with_deadline = 0;
  std::uint64_t violations = 0;  ///< completed after their deadline

  [[nodiscard]] double hit_rate() const noexcept {
    return with_deadline == 0
               ? 1.0
               : 1.0 - static_cast<double>(violations) /
                           static_cast<double>(with_deadline);
  }
};

/// One tenant's end-to-end QoS outcome: what it asked for, what was
/// admitted, what completed, how its SLOs fared, and what was shed (by
/// reason). tier/weight echo the registry so reports are self-contained.
struct TenantReport {
  TenantId tenant = 0;
  std::uint32_t tier = 0;
  double weight = 1.0;
  std::uint64_t admitted = 0;   ///< requests that entered the batcher
  std::uint64_t completed = 0;  ///< responses observed at the host
  std::uint64_t with_deadline = 0;
  std::uint64_t violations = 0;
  ShedCounters shed;

  [[nodiscard]] std::uint64_t offered() const noexcept {
    return admitted + shed.total();
  }
  [[nodiscard]] double hit_rate() const noexcept {
    return with_deadline == 0
               ? 1.0
               : 1.0 - static_cast<double>(violations) /
                           static_cast<double>(with_deadline);
  }
  [[nodiscard]] bool operator==(const TenantReport&) const noexcept = default;
};

/// Serving-level energy estimate (see the header comment).
struct ServingEnergy {
  double dynamic_joules = 0.0;  ///< datapath ops across every dispatch
  double static_joules = 0.0;   ///< static + clock tree, all devices
  double link_joules = 0.0;     ///< host-link PHY while active
  double total_joules = 0.0;
  double mean_watts = 0.0;              ///< total over the makespan
  double per_inference_joules = 0.0;    ///< total / completed
};

/// Everything a serving experiment reports.
struct ServingReport {
  std::size_t offered = 0;    ///< requests emitted by the generator
  std::size_t completed = 0;  ///< responses observed at the host
  /// Requests the stack refused, over every ShedReason (queue-full,
  /// quota, doomed, overload) — always equal to shed.total().
  std::size_t rejected = 0;
  sim::Cycle makespan_cycles = 0;
  double seconds = 0.0;  ///< makespan at the configured clock
  double throughput_stories_per_second = 0.0;
  double offered_stories_per_second = 0.0;
  double accuracy = 0.0;
  double early_exit_rate = 0.0;

  LatencySummary latency;     ///< enqueue -> answer visible
  LatencySummary queue_wait;  ///< enqueue -> batch dispatched

  /// SLO attainment: responses that carried a deadline and met it.
  /// hit rate is 1.0 when no response carried a deadline.
  std::uint64_t deadline_total = 0;
  std::uint64_t deadline_missed = 0;
  double deadline_hit_rate = 1.0;
  std::vector<TaskSloReport> task_slo;  ///< per served task, task-ordered

  /// Multi-tenant QoS: shed accounting by reason (the unified rejection
  /// path), per-tenant outcomes, and Jain's fairness index over the
  /// tenants' weight-normalized completed throughput (1.0 = perfectly
  /// proportional service; also 1.0 when fewer than two tenants).
  ShedCounters shed;
  std::vector<TenantReport> tenants;  ///< tenant-id-ordered
  double fairness_index = 1.0;

  double mean_batch_size = 0.0;
  double batching_efficiency = 0.0;  ///< mean batch / max_batch
  double mean_device_utilization = 0.0;
  std::uint64_t model_uploads = 0;
  std::uint64_t model_evictions = 0;  ///< uploads that displaced a model
  std::uint64_t stolen_batches = 0;   ///< cross-shard work-stealing wins

  ServingEnergy energy;

  // Host-execution view: everything above is on the simulated device
  // clock; these report how fast the host actually ground through it.
  double host_wall_seconds = 0.0;     ///< wall time of the serving loop
  accel::ServiceCycleCacheStats cycle_cache;  ///< zeros when disabled
  /// Worker prefetch scoring: useful = predicted variant matched the
  /// dispatch, wasted = worker simulated a variant the dispatch could
  /// not use. Zeros when workers == 0; deterministic otherwise.
  SpeculationStats speculation;

  BatcherCounters batching;
  std::vector<DeviceReport> devices;
};

/// Everything finalize() folds in beside the per-response observations —
/// the end-of-run counters of the other serving components.
struct RunTotals {
  std::size_t offered = 0;
  sim::Cycle makespan = 0;
  std::size_t max_batch = 0;
  BatcherCounters batching;
  /// Unified shed accounting from the admission controller (which also
  /// records the batcher's full-queue rejects). `rejected` derives from
  /// these.
  ShedCounters sheds;
  std::vector<ShedCounters> tenant_sheds;      ///< indexed by tenant id
  std::vector<std::uint64_t> tenant_admitted;  ///< indexed by tenant id
  /// Tenant registry (tier/weight echoed into the per-tenant reports and
  /// the fairness index); empty = single default tenant.
  std::vector<TenantConfig> tenants;
  std::vector<DeviceReport> devices;
  std::uint64_t model_uploads = 0;
  std::uint64_t model_evictions = 0;
  std::uint64_t stolen_batches = 0;
  /// Aggregate device activity for the energy model.
  sim::OpCounts device_ops;
  sim::Cycle link_active_cycles = 0;
  double host_wall_seconds = 0.0;
  accel::ServiceCycleCacheStats cycle_cache;
  SpeculationStats speculation;
};

/// True when two reports agree on every byte-stable (host-independent)
/// field — the determinism contract's observable surface. Host-execution
/// fields (wall seconds, cycle-cache and speculation stats) are excluded
/// by design; tenant reports compare exactly via their defaulted
/// operator==. Used by the bench's worker-count invariance checks and by
/// mann::cluster's cluster-of-1 ≡ serve::run identity gate.
[[nodiscard]] bool simulated_reports_identical(const ServingReport& a,
                                               const ServingReport& b);

class ServingMetrics {
 public:
  /// `power_config` parameterizes the serving energy estimate.
  explicit ServingMetrics(double clock_hz,
                          power::FpgaPowerConfig power_config = {});

  void record(const InferenceResponse& response);

  [[nodiscard]] std::size_t completed() const noexcept { return completed_; }

  /// Folds accumulated observations plus the component counters into the
  /// final report. `totals.makespan` is the serving clock at the last
  /// completion.
  [[nodiscard]] ServingReport finalize(RunTotals totals) const;

 private:
  struct TaskCounters {
    std::uint64_t completed = 0;
    std::uint64_t with_deadline = 0;
    std::uint64_t violations = 0;
    bool seen = false;
  };
  struct TenantCounters {
    std::uint64_t completed = 0;
    std::uint64_t with_deadline = 0;
    std::uint64_t violations = 0;
  };

  double clock_hz_;
  power::FpgaPowerConfig power_config_;
  std::size_t completed_ = 0;
  std::size_t correct_ = 0;
  std::size_t early_exits_ = 0;
  std::uint64_t batch_size_sum_ = 0;
  std::uint64_t deadline_total_ = 0;
  std::uint64_t deadline_missed_ = 0;
  std::vector<TaskCounters> per_task_;      ///< grows to the max task seen
  std::vector<TenantCounters> per_tenant_;  ///< grows to the max tenant seen
  std::vector<sim::Cycle> latency_;     ///< enqueue -> answer, per response
  std::vector<sim::Cycle> queue_wait_;  ///< enqueue -> dispatch
};

}  // namespace mann::serve
