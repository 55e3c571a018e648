// ServerSession: the serving stack as stepwise primitives.
//
// A ServerSession runs admission -> batcher -> scheduler -> device pool
// on the shared sim::Simulator, and takes every arrival from its driver:
//
//   submit()            inject one request (the only arrival path)
//   step_until()        advance the simulated serving loop to an
//                       exclusive cycle horizon, so a driver that learns
//                       of arrivals late (a live daemon) never lets the
//                       clock run past what it has been told about
//   poll_completions()  drain resolved requests (completions AND sheds)
//                       as serve::Completion records in a deterministic,
//                       globally (cycle, id)-sorted stream
//   drain()             flush sub-size batches immediately from here on
//   finalize()          run to quiescence and fold the ServingReport
//
// plus live reconfiguration (set_tenant / set_slo / set_policy) that
// takes effect mid-run without dropping in-flight requests.
//
// serve::run() below is the closed loop over one session: it draws a
// TrafficGenerator's arrivals and feeds them through drive_closed_loop(),
// the loop cluster::Cluster::run() shares.
//
// Determinism contract: the tick sequence is a pure function of the
// submitted arrival schedule, never of *when* the driver called
// step_until — pausing at any horizon and resuming later replays the
// exact same cycles.
//
// The pipeline stages are sim::Modules, and every step is one
// sim::Simulator::run_events call with an exclusive horizon:
// step_until(h) processes every event at cycles < h and holds
// everything at >= h. A lockstep driver that has submitted all arrivals
// up to cycle c can therefore step_until(c) safely — a not-yet-submitted
// arrival at exactly c is still in the future when it finally arrives.
// The serving watchdog (ServerConfig::watchdog_cycles) counts from cycle
// 0 across all steps, never per call.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "serve/outcome.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"

namespace mann::serve {

/// One open-loop submission (ServerSession::submit()).
struct SubmitRequest {
  std::size_t task = 0;
  TenantId tenant = 0;
  /// Absolute arrival cycle; 0 = "at the session clock". Arrivals are
  /// clamped monotone (>= the session clock and every prior arrival) so
  /// the submitted schedule is always a valid trace.
  sim::Cycle at_cycle = 0;
  /// Relative deadline budget in cycles: 0 derives the deadline from the
  /// session's live SLO tables (the tenant's override when set, else the
  /// task's SLO), sim::kNever forces "no deadline", anything else is an
  /// explicit arrival-relative budget.
  sim::Cycle deadline_cycles = 0;
};

/// Mid-run status snapshot (the daemon's `info[i]` lines).
struct SessionInfo {
  std::size_t offered = 0;    ///< submitted so far
  std::size_t admitted = 0;   ///< entered the batcher
  std::size_t completed = 0;  ///< responses recorded
  std::size_t shed = 0;       ///< refused, all reasons
  std::size_t batcher_pending = 0;
  std::size_t scheduler_pending = 0;  ///< queued batches
  std::size_t in_flight = 0;          ///< dispatched, completion pending
  sim::Cycle cycle = 0;               ///< session clock
  bool draining = false;
  SchedulerPolicy policy = SchedulerPolicy::kEdf;
};

class ServerSession {
 public:
  /// `models` must outlive the session. Request ids count up from
  /// `first_id`: a multi-instance driver (mann::cluster) gives every
  /// instance a disjoint id range so completion streams and trace spans
  /// stay globally unique. Throws std::invalid_argument for an empty
  /// registry, a model with an empty corpus, or a tenant contract
  /// validate_tenant refuses.
  ServerSession(ServerConfig config, const std::vector<ServedModel>& models,
                RequestId first_id = 0);
  ~ServerSession();

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Injects one request; returns its id (submission order, from the
  /// constructor's `first_id`). Throws std::out_of_range when
  /// check_submit() refuses the request and std::logic_error after
  /// finalize().
  RequestId submit(const SubmitRequest& request);

  /// Throws std::out_of_range, changing nothing, for a request submit()
  /// can never serve: an unknown task or tenant, or an arrival at or
  /// past ServerConfig::watchdog_cycles (the session clock starts at 0,
  /// so the watchdog expires before such an arrival is reached).
  void check_submit(const SubmitRequest& request) const;

  /// Advances until the exclusive cycle horizon `limit` (sim::kNever =
  /// to quiescence). Returns true when the session is quiescent (every
  /// submitted request arrived, queues empty, nothing in flight). Throws
  /// the serving watchdog's std::runtime_error once the clock reaches
  /// ServerConfig::watchdog_cycles with work left.
  bool step_until(sim::Cycle limit);

  /// Moves out every request resolved since the last poll — completions
  /// and sheds alike — sorted by (cycle, id). Windows are drained at
  /// non-decreasing clock values, so concatenated windows form one
  /// globally sorted deterministic stream.
  [[nodiscard]] std::vector<Completion> poll_completions();

  /// From now on, sub-size batches flush immediately instead of aging to
  /// the batcher timeout (sticky; the end-of-stream signal).
  void drain() noexcept { draining_ = true; }

  /// Drains, runs to quiescence, quiesces host workers and folds the
  /// final ServingReport. Callable once.
  [[nodiscard]] ServingReport finalize();

  // ---- live reconfiguration (takes effect at the next tick; never
  // drops queued or in-flight requests) ----

  /// Replaces one tenant's contract across every control-plane stage:
  /// admission quota/tier, WFQ dispatch weight, and the SLO override
  /// stamped on future arrivals. Throws std::out_of_range outside the
  /// registry (its size is fixed at construction) and
  /// std::invalid_argument for a contract validate_tenant refuses; the
  /// old contract is kept on throw.
  void set_tenant(TenantId tenant, const TenantConfig& config);

  /// Replaces the per-task SLO table used for future arrivals.
  void set_slo(const SloConfig& slo);

  /// Switches the dispatch policy; false (and no change) when the
  /// layout cannot support it (kWfq on a session not built under kWfq
  /// with two or more tenants). Pending work is re-keyed, never dropped.
  [[nodiscard]] bool set_policy(SchedulerPolicy policy);

  // ---- introspection ----

  [[nodiscard]] sim::Cycle now() const noexcept { return simulator_.now(); }
  /// Arrival cycle of the most recent submit() (0 before the first).
  /// A lockstep driver uses it as the exclusive step_until() horizon:
  /// everything strictly before the last vouched-for arrival may run.
  [[nodiscard]] sim::Cycle last_submitted_arrival() const noexcept {
    return last_arrival_;
  }
  /// Every submitted request arrived, every queue empty, nothing in
  /// flight.
  [[nodiscard]] bool idle() const noexcept;
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] SessionInfo info() const;
  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t num_tenants() const noexcept {
    return tenants_.empty() ? 1 : tenants_.size();
  }
  /// Pending work under the scheduler's cost model (queued batches +
  /// in-flight remainders), in cycles at the current clock. A simulated
  /// quantity, so routers may use it as a load signal without breaking
  /// the any-worker-count determinism contract.
  [[nodiscard]] sim::Cycle pending_cost_cycles() const noexcept {
    return scheduler_.backlog_cycles(simulator_.now());
  }

 private:
  // The serving pipeline stages, each a sim::Module (defined in
  // session.cpp; nested so they reach the session's internals).
  class Frontend;
  class BatchStage;
  class Dispatch;

  /// Arrival cycle of the earliest submitted request still to arrive.
  [[nodiscard]] sim::Cycle next_arrival() const noexcept {
    return arrivals_.empty() ? sim::kNever : arrivals_.front().enqueue_cycle;
  }
  /// Sub-size leftovers flush immediately once drain() was called and
  /// every submitted request has arrived. Until then they age to the
  /// batcher timeout: between submits nothing is pending, and flushing
  /// then would defeat batching.
  [[nodiscard]] bool drain_ready() const noexcept {
    return draining_ && arrivals_.empty();
  }
  /// SLO deadline for a submitted request (tenant override, else task).
  [[nodiscard]] sim::Cycle deadline_for(std::size_t task,
                                        TenantId tenant) const noexcept;

  ServerConfig config_;  ///< resolved: obs sinks threaded
  std::vector<std::span<const data::EncodedStory>> corpora_;  ///< per task
  /// Live registry (set_tenant); admission reads quotas and tiers and the
  /// scheduler WFQ weights from it, so it is declared before both and
  /// never resized.
  std::vector<TenantConfig> tenants_;
  SloConfig slo_;                      ///< live SLO table (set_slo)
  AdmissionController admission_;
  Batcher batcher_;
  Scheduler scheduler_;
  ServingMetrics metrics_;
  sim::Cycle last_completion_ = 0;
  sim::Simulator simulator_;
  std::unique_ptr<Frontend> frontend_;
  std::unique_ptr<BatchStage> batch_stage_;
  std::unique_ptr<Dispatch> dispatch_;

  std::deque<InferenceRequest> arrivals_;  ///< arrival-ordered
  std::vector<std::size_t> cursors_;  ///< submit(): per-task round-robin
  std::vector<Completion> outbox_;
  RequestId next_id_ = 0;
  std::size_t offered_ = 0;
  sim::Cycle last_arrival_ = 0;
  bool draining_ = false;
  bool finalized_ = false;

  bool wall_running_ = false;
  std::chrono::steady_clock::time_point wall_start_{};
  double wall_seconds_ = 0.0;
};

/// The one closed loop, shared by serve::run() and cluster::Cluster::run():
/// draws `total_requests` arrivals over tasks [0, num_tasks) from
/// `traffic` and feeds them to `driver` (a ServerSession or a
/// cluster::Cluster). Before each arrival the driver steps to its cycle
/// (exclusive), so every decision at that arrival sees all work before it
/// and none after; the arrival is then submitted with deadline 0, so the
/// session stamps its SLO. Completions are polled every 256 arrivals and
/// dropped, so a long run keeps no ledger. Draining and finalizing are
/// left to the caller.
template <typename Driver>
void drive_closed_loop(Driver& driver, const TrafficConfig& traffic,
                       std::size_t num_tasks, std::size_t total_requests) {
  TrafficGenerator generator(traffic, num_tasks, total_requests);
  std::size_t since_poll = 0;
  for (sim::Cycle at = generator.next_arrival(); at != sim::kNever;
       at = generator.next_arrival()) {
    (void)driver.step_until(at);
    const TraceEntry arrival = generator.poll(at).value();
    (void)driver.submit({arrival.task, arrival.tenant, at, 0});
    if (++since_poll == 256) {
      (void)driver.poll_completions();
      since_poll = 0;
    }
  }
}

/// Serves `total_requests` drawn from config.traffic to completion (every
/// admitted request answered, queues drained) and reports: the closed
/// loop over one session. Throws std::invalid_argument for an empty
/// registry or a model with an empty corpus.
[[nodiscard]] ServingReport run(ServerConfig config,
                                const std::vector<ServedModel>& models,
                                std::size_t total_requests);

}  // namespace mann::serve
