// Serving-layer request/response types and the open-loop traffic source.
//
// The seed measures one task's test split as a single batch (the paper's
// protocol); mann::serve turns that into a runtime serving many concurrent
// users. An InferenceRequest is one user question against one task's
// model; the TrafficGenerator draws a deterministic arrival schedule —
// (cycle, task, tenant) rows, the same TraceEntry a recorded trace holds
// — so every serving experiment is exactly reproducible from a seed.
//
// Every request carries a completion deadline the session stamps from a
// per-task SLO config (sim::kNever when the task has no SLO) and a
// TenantId naming who it belongs to (see serve/tenant.hpp). Tenants are
// drawn from the configured traffic shares by a dedicated RNG stream, so
// labelling traffic with tenants never perturbs the arrival timing — the
// same seed produces the same schedule with or without a tenant
// registry. Deadlines drive the deadline-aware scheduler and the
// admission controller's load-shedding; the metrics report per-task and
// per-tenant hit-rates.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "data/types.hpp"
#include "numeric/random.hpp"
#include "serve/tenant.hpp"
#include "serve/trace.hpp"
#include "sim/types.hpp"

namespace mann::serve {

using RequestId = std::uint64_t;

/// Per-task latency SLOs, expressed as enqueue-to-completion deadlines in
/// device cycles. sim::kNever means "no SLO" (the request never expires).
struct SloConfig {
  /// Deadline for tasks without a per-task override.
  sim::Cycle default_deadline_cycles = sim::kNever;
  /// Indexed by task id; 0 means "use the default" (a real 0-cycle
  /// deadline would be unmeetable anyway). Tasks beyond the vector use
  /// the default.
  std::vector<sim::Cycle> per_task;

  [[nodiscard]] sim::Cycle deadline_for(std::size_t task) const noexcept {
    if (task < per_task.size() && per_task[task] != 0) {
      return per_task[task];
    }
    return default_deadline_cycles;
  }
};

/// One in-flight user question. The story is non-owning: the serving
/// corpus (per-task test splits) outlives every request.
struct InferenceRequest {
  RequestId id = 0;
  std::size_t task = 0;  ///< index into the server's model registry
  TenantId tenant = 0;   ///< index into the tenant registry (0 = default)
  const data::EncodedStory* story = nullptr;
  sim::Cycle enqueue_cycle = 0;             ///< arrival at the frontend
  sim::Cycle deadline_cycle = sim::kNever;  ///< SLO deadline (absolute)
};

/// One answered question, with the full timestamp trail for latency
/// accounting (all cycles are on the shared serving clock).
struct InferenceResponse {
  RequestId id = 0;
  std::size_t task = 0;
  TenantId tenant = 0;          ///< carried from the request
  std::size_t device = 0;       ///< pool device that served it
  std::size_t batch_size = 0;   ///< size of the batch it rode in
  std::int32_t prediction = -1;
  std::int32_t answer = -1;     ///< ground truth, for serving accuracy
  bool early_exit = false;
  sim::Cycle enqueue_cycle = 0;
  sim::Cycle dispatch_cycle = 0;  ///< batch handed to a device
  sim::Cycle complete_cycle = 0;  ///< answer visible at the host
  sim::Cycle deadline_cycle = sim::kNever;  ///< carried from the request

  [[nodiscard]] sim::Cycle queue_cycles() const noexcept {
    return dispatch_cycle - enqueue_cycle;
  }
  [[nodiscard]] sim::Cycle latency_cycles() const noexcept {
    return complete_cycle - enqueue_cycle;
  }
  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline_cycle != sim::kNever;
  }
  [[nodiscard]] bool deadline_met() const noexcept {
    return complete_cycle <= deadline_cycle;
  }
};

/// Arrival process shapes for the open-loop generator.
enum class ArrivalProcess : std::uint8_t {
  kPoisson,  ///< memoryless arrivals at the configured mean rate
  kBursty,   ///< geometric bursts with tight intra-burst spacing
  kDiurnal,  ///< Poisson with sinusoidal rate modulation (day/night load)
  kTrace,    ///< exact replay of a recorded arrival_cycle/task schedule
};

struct TrafficConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Long-run mean gap between arrivals, in device cycles. Every
  /// synthetic process honours this, so sweeps compare equal offered
  /// load (the trace process takes its timing from the trace instead).
  double mean_interarrival_cycles = 50'000.0;
  /// Bursty only: mean burst length (geometric) and the fixed gap between
  /// requests inside a burst.
  double burst_mean = 8.0;
  double burst_gap_cycles = 64.0;
  /// Diurnal only: instantaneous rate = base rate * (1 + A sin(2πt/P)).
  /// Amplitude must sit in [0, 1) so the rate never reaches zero; the
  /// period is one simulated "day".
  double diurnal_amplitude = 0.5;
  double diurnal_period_cycles = 10.0e6;
  /// Trace only: the recorded schedule to replay. Task ids must be below
  /// the generator's task count; tenant ids must name registry entries;
  /// arrival cycles must be non-decreasing. When total_requests
  /// exceeds the trace length the trace loops, shifted by its span each
  /// lap, so long experiments can replay a short recording.
  std::vector<TraceEntry> trace;
  /// Per-task deadlines the session stamps on every arrival.
  SloConfig slo;
  /// Tenant registry: entry i configures tenant id i. Synthetic
  /// processes draw each request's tenant in proportion to
  /// `traffic_share` (from an independent RNG stream, so the arrival
  /// timing is identical with or without tenants); trace replay takes
  /// the tenant from the recording. Empty = single tenant 0.
  std::vector<TenantConfig> tenants;
  std::uint64_t seed = 2019;
};

/// Deterministic open-loop arrival source: draws tasks uniformly at
/// random (seeded) from [0, num_tasks), draws tenants by traffic share,
/// and spaces arrivals by the configured process — except trace replay,
/// which takes the task, tenant and spacing from the recording.
/// Exhausted after `total_requests`.
class TrafficGenerator {
 public:
  TrafficGenerator(TrafficConfig config, std::size_t num_tasks,
                   std::size_t total_requests);

  [[nodiscard]] std::size_t total_requests() const noexcept { return total_; }
  [[nodiscard]] bool exhausted() const noexcept { return emitted_ >= total_; }
  /// Registry size (1 when no tenants were configured).
  [[nodiscard]] std::size_t num_tenants() const noexcept {
    return num_tenants_;
  }

  /// Arrival cycle of the next request; sim::kNever once exhausted.
  [[nodiscard]] sim::Cycle next_arrival() const noexcept {
    return exhausted() ? sim::kNever : next_cycle_;
  }

  /// Emits the next arrival if its cycle has come.
  [[nodiscard]] std::optional<TraceEntry> poll(sim::Cycle now);

 private:
  void schedule_next();
  /// Task of the next emission (trace: dictated by the recording;
  /// otherwise drawn uniformly).
  [[nodiscard]] std::size_t next_task();
  /// Tenant of the next emission (trace: from the recording; otherwise
  /// drawn by traffic share from the dedicated tenant RNG stream).
  [[nodiscard]] TenantId next_tenant();

  TrafficConfig config_;
  std::size_t num_tasks_;
  std::size_t total_;
  std::size_t emitted_ = 0;
  numeric::Rng rng_;
  numeric::Rng tenant_rng_;  ///< independent stream for tenant draws
  std::size_t num_tenants_ = 1;
  std::vector<double> tenant_share_cdf_;  ///< cumulative traffic shares
  double arrival_clock_ = 0.0;  ///< exact (fractional) arrival time
  sim::Cycle next_cycle_ = 0;
  std::size_t burst_left_ = 0;  ///< bursty: requests left in this burst
  sim::Cycle trace_span_ = 0;  ///< loop shift when replaying past the end
};

}  // namespace mann::serve
