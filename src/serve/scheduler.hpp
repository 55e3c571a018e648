// Batch scheduler over a pool of accelerator devices.
//
// Each served task has one compiled Accelerator (config + device
// program); the pool is N device *slots*, each remembering which task's
// program its BRAM currently holds. Dispatching a batch to a slot whose
// resident program differs re-pays the model upload (a cold run);
// dispatching to a warm slot uses RunOptions::model_resident and skips
// it. Placement is per-task sharding over the first `dedicated_devices`
// slots (home = task % dedicated) with the remaining slots forming a
// shared overflow pool that absorbs bursts.
//
// Dispatch policy (SchedulerConfig::policy):
//   * kEdf (default) — deadline-aware dispatch. Pending batches live in
//     per-shard queues ordered earliest-deadline-first (submit order
//     breaks ties, and batches without SLOs sort last, i.e. with no
//     deadlines configured EDF picks batches in submit order — though
//     unlike kFifo it is work-conserving: a younger batch may dispatch
//     while the oldest waits for an eligible slot). Free slots serve their
//     own shard first; an idle slot that finds its queue empty steals the
//     most urgent batch from any other shard's queue — across the
//     shard/overflow boundary in both directions — so one overloaded
//     shard cannot idle the rest of the pool. A steal displaces the idle
//     slot's resident model, so it only happens when it is worth the
//     reload: the home slot's remaining busy time exceeds the task's
//     observed reload cost, or waiting for home would miss the batch's
//     deadline.
//   * kWfq — weighted fair queueing across tenants, EDF within a
//     tenant. Every shard keeps one EDF-ordered lane per tenant of the
//     registry the scheduler was built with; at each dispatch the
//     least-served active tenant (smallest virtual finish time, advanced
//     by stories/weight on every dispatch, the weight read live from the
//     registry) wins the slot, and its most urgent batch with an eligible
//     slot goes. A tenant that floods the queues only advances its own
//     virtual time, so a misbehaving tenant cannot displace conforming
//     tenants' slots — the dispatch-stage half of tenant isolation
//     (admission is the other half).
//   * kFifo — the head-of-line dispatcher kept as the comparison
//     baseline: the globally oldest pending batch waits for its home or
//     an overflow slot, and nothing behind it may jump ahead.
//
// kEdf and kWfq share one pick-and-dispatch routine: among a set of
// queues (every queue for kEdf, one tenant's lanes for kWfq) it pops the
// most urgent (deadline, seq) head that has an eligible slot and
// dispatches it. WFQ's virtual-time charge is their only difference.
//
// Slot choice for both: home, then a warm slot, then an empty one; when
// every eligible free slot holds some other task's program, the least
// recently dispatched resident goes (lowest slot id on ties), counted
// per slot and in "serve.eviction.victims".
//
// The scheduler also exposes its cost model (`service_estimate`,
// `backlog_cycles`, `reload_estimate`) — the same observed-cycle
// bookkeeping that gates work-stealing — so the admission controller
// can shed provably-doomed requests against the very estimates dispatch
// will use.
//
// Host-parallel execution: with `workers > 0` the scheduler also owns a
// WorkerPool and a ServiceCycleCache. Every submitted batch is
// speculatively simulated on a worker and published into the cache; by
// the time the simulated clock reaches the dispatch, the result is
// usually already memoized and the dispatch replays it for free. The
// dispatch path itself is unchanged — it runs the device through the
// same cache, so a speculation miss (or mispredicted variant) simply
// simulates inline. Dispatch decisions never depend on worker timing,
// which keeps the serving timeline bit-identical for any worker count,
// including zero (the sequential escape hatch).
//
// Speculation is *affinity-aware*: the warm/cold variant a worker
// simulates is predicted from the shard the batch will dispatch on —
// the task of the shard's most recently submitted batch approximates
// what will be resident when this batch reaches the device, because
// submit order approximates dispatch order within a shard. Every
// prediction is scored at dispatch (useful when the predicted variant
// matched the one the slot actually needed, wasted otherwise) into
// SpeculationStats; the prediction is a pure function of the simulated
// submit history, so the counts are identical for any worker count > 0.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/service_cycle_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/request.hpp"
#include "serve/tenant.hpp"
#include "serve/worker_pool.hpp"
#include "sim/types.hpp"

namespace mann::serve {

/// Dispatch-ordering policies (see the header comment).
enum class SchedulerPolicy : std::uint8_t {
  kFifo,  ///< legacy head-of-line: strict submit order, no stealing
  kEdf,   ///< earliest-deadline-first with work-stealing
  kWfq,   ///< weighted fair queueing across tenants, EDF within a tenant
};

[[nodiscard]] const char* scheduler_policy_name(
    SchedulerPolicy policy) noexcept;

/// Speculation outcome accounting. `speculated` counts worker prefetch
/// jobs; each is scored at its batch's dispatch as `useful` (the
/// predicted warm/cold variant matched the slot) or `wasted` (the worker
/// simulated the variant the dispatch could not use), so after a drain
/// speculated == useful + wasted. All three are pure functions of the
/// simulated timeline — identical for any worker count > 0, all zero at
/// workers == 0.
struct SpeculationStats {
  std::uint64_t speculated = 0;
  std::uint64_t useful = 0;
  std::uint64_t wasted = 0;

  [[nodiscard]] bool operator==(const SpeculationStats&) const noexcept =
      default;
};

struct SchedulerConfig {
  std::size_t devices = 2;
  /// First `dedicated_devices` slots are sharded by task id; the rest
  /// are the shared overflow pool. 0 means the whole pool is shared.
  /// Clamped to `devices`.
  std::size_t dedicated_devices = 0;
  /// Total pending-batch bound across every shard queue (submit()
  /// rejects beyond it).
  std::size_t queue_capacity = 1024;
  SchedulerPolicy policy = SchedulerPolicy::kEdf;
  /// Host worker threads simulating device batches ahead of the serving
  /// clock. 0 = sequential host execution (the debugging escape hatch);
  /// the natural setting is one worker per device slot.
  std::size_t workers = 0;
  /// Entry bound of the internally owned service-cycle cache (ignored
  /// when `cycle_cache` is supplied).
  std::size_t cache_capacity = 1024;
  /// External service-cycle cache (non-owning) — lets callers share one
  /// cache across sessions so a repeated workload replays instantly.
  /// When null and `workers > 0`, the scheduler owns a private cache
  /// (workers need one as the speculation rendezvous).
  accel::ServiceCycleCache* cycle_cache = nullptr;
  /// Observability sinks (non-owning, both optional). `metrics` receives
  /// "serve.scheduler.*" instruments and "serve.eviction.victims", and
  /// flows into the owned cache and worker pool; `trace` receives
  /// per-request service spans, device occupancy and worker speculation
  /// spans.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

/// Per-slot utilization report.
struct DeviceReport {
  std::size_t id = 0;
  std::optional<std::size_t> resident_task;  ///< program left in BRAM
  sim::Cycle busy_cycles = 0;
  std::uint64_t batches = 0;
  std::uint64_t stories = 0;
  std::uint64_t model_uploads = 0;  ///< cold dispatches (upload re-paid)
  std::uint64_t model_evictions = 0;  ///< uploads that displaced a model
  std::uint64_t stolen_batches = 0;   ///< dispatches taken from another shard
};

class Scheduler {
 public:
  /// `task_devices[t]` is the compiled accelerator for task t. All pool
  /// slots share these immutable program images; residency is per slot.
  /// `tenants` is the tenant registry (non-owning; it must outlive the
  /// scheduler and keep its size). Built under kWfq, the scheduler keeps
  /// one lane per entry and weighs tenant t by tenants[t].weight at each
  /// dispatch, so a registry update lands at the next one; an empty
  /// registry is one lane of weight 1. Throws std::invalid_argument for
  /// an empty pool or program set, or for an entry validate_tenant
  /// refuses.
  Scheduler(SchedulerConfig config,
            std::vector<accel::Accelerator> task_devices,
            std::span<const TenantConfig> tenants = {});

  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

  /// Queues a batch for dispatch; false when the pending bound is hit.
  [[nodiscard]] bool submit(Batch batch);

  [[nodiscard]] bool has_capacity() const noexcept {
    return pending_total_ < queue_capacity_;
  }

  /// Assigns pending batches to free device slots at `now`, in policy
  /// order (deterministic for a given submit history).
  void step(sim::Cycle now);

  // ---- live reconfiguration (ServerSession::set_policy / set_tenant) --

  /// Switches the dispatch policy mid-run without dropping pending work:
  /// every queued batch is re-keyed under the new ordering (in-flight
  /// work is untouched). Returns false — and changes nothing — when the
  /// switch is impossible: kWfq needs the per-tenant lanes that only
  /// exist when the scheduler was *constructed* under kWfq with two or
  /// more tenants (lane count is part of the queue layout, which is
  /// fixed). Switching between kFifo/kEdf, or away from and back to kWfq
  /// on a WFQ-constructed scheduler, always succeeds.
  [[nodiscard]] bool set_policy(SchedulerPolicy policy);

  /// Moves out every response whose completion time has been reached,
  /// in dispatch order, into a buffer the scheduler keeps: the reference
  /// stays valid until the next collect(), and a collect allocates only
  /// when it hands out more responses than any before it.
  [[nodiscard]] const std::vector<InferenceResponse>& collect(sim::Cycle now);

  [[nodiscard]] std::size_t pending_batches() const noexcept {
    return pending_total_;
  }
  /// Requests inside the pending batches (the admission controller's
  /// occupancy input, together with the batcher's pending count).
  [[nodiscard]] std::size_t pending_stories() const noexcept {
    return pending_stories_;
  }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.size();
  }
  [[nodiscard]] bool idle() const noexcept {
    return pending_total_ == 0 && in_flight_.empty();
  }

  /// Earliest in-flight completion; sim::kNever when nothing is running.
  [[nodiscard]] sim::Cycle next_completion() const noexcept;

  /// Earliest cycle after `now` at which a busy slot frees; sim::kNever
  /// when no slot is busy at `now`. With batches pending this bounds
  /// the next dispatch opportunity (event-skipping horizon).
  [[nodiscard]] sim::Cycle next_slot_free(sim::Cycle now) const noexcept;

  // ---- cost model (shared with the admission controller) ----

  /// Latest observed service cycles for `task` (warm preferred, cold
  /// fallback; 0 before any observation).
  [[nodiscard]] sim::Cycle service_estimate(std::size_t task) const noexcept;
  /// Total undone work at `now`: busy-slot remainders plus a service
  /// estimate for every pending batch, in cycles (divide by the pool
  /// size for a per-device figure).
  [[nodiscard]] sim::Cycle backlog_cycles(sim::Cycle now) const noexcept;

  [[nodiscard]] std::vector<DeviceReport> device_reports() const;

  [[nodiscard]] std::uint64_t total_model_uploads() const noexcept;
  [[nodiscard]] std::uint64_t total_model_evictions() const noexcept;
  [[nodiscard]] std::uint64_t total_stolen_batches() const noexcept;

  /// Aggregate datapath activity over every dispatched run — the power
  /// model folds these into serving energy.
  [[nodiscard]] const sim::OpCounts& device_ops() const noexcept {
    return device_ops_;
  }
  [[nodiscard]] sim::Cycle link_active_cycles() const noexcept {
    return link_active_cycles_;
  }

  /// Blocks until outstanding speculative work has drained, so cache
  /// counters read afterwards are complete (and deterministic: the set
  /// of speculated jobs is a pure function of the serving timeline).
  void quiesce();

  /// Service-cycle cache counters (all zero when caching is off).
  [[nodiscard]] accel::ServiceCycleCacheStats cache_stats() const;
  /// Speculation outcome counters (all zero when workers == 0). Complete
  /// once every submitted batch has dispatched.
  [[nodiscard]] const SpeculationStats& speculation_stats() const noexcept {
    return speculation_;
  }

 private:
  struct Slot {
    std::size_t id = 0;
    std::optional<std::size_t> resident_task;
    sim::Cycle busy_until = 0;
    sim::Cycle busy_cycles = 0;
    sim::Cycle last_dispatch_cycle = 0;
    std::uint64_t batches = 0;
    std::uint64_t stories = 0;
    std::uint64_t model_uploads = 0;
    std::uint64_t model_evictions = 0;
    std::uint64_t stolen_batches = 0;

    [[nodiscard]] bool free(sim::Cycle now) const noexcept {
      return busy_until <= now;
    }
  };

  /// One queued batch, stamped with its admission sequence number (the
  /// deterministic tie-break and the FIFO ordering key) and the warm/cold
  /// variant speculation predicted for it at submit (1 warm, 0 cold, -1
  /// not speculated) — scored against the actual dispatch.
  struct PendingBatch {
    Batch batch;
    std::uint64_t seq = 0;
    std::int8_t predicted = -1;
  };

  /// Ordering of the shard queues: EDF (and the per-tenant WFQ lanes)
  /// sorts by (deadline, seq) so the most urgent batch is always at
  /// begin(); FIFO sorts by seq alone (pure submit order). seq is
  /// unique, so the order is total and the queues behave as priority
  /// queues with O(log n) admission.
  struct PendingOrder {
    SchedulerPolicy policy = SchedulerPolicy::kEdf;
    [[nodiscard]] bool operator()(const PendingBatch& a,
                                  const PendingBatch& b) const noexcept {
      if (policy != SchedulerPolicy::kFifo &&
          a.batch.deadline != b.batch.deadline) {
        return a.batch.deadline < b.batch.deadline;
      }
      return a.seq < b.seq;
    }
  };
  using PendingQueue = std::multiset<PendingBatch, PendingOrder>;

  /// Per-task service-cycle observations feeding the cost-aware policy.
  struct TaskCycleEstimate {
    sim::Cycle cold = 0;  ///< latest observed cold (upload-paying) run
    sim::Cycle warm = 0;  ///< latest observed warm run
  };

  /// Per tenant lane: WFQ's virtual time and the lane's pending count.
  struct TenantQueueState {
    double virtual_finish = 0.0;  ///< advanced by stories/weight
    std::size_t pending = 0;      ///< batches queued across all shards
  };

  [[nodiscard]] std::size_t queue_for(std::size_t task) const noexcept;
  /// Index into queues_ for (shard, tenant lane).
  [[nodiscard]] std::size_t lane_index(std::size_t shard,
                                       std::size_t lane) const noexcept {
    return shard * tenant_lanes_ + lane;
  }
  /// True when every tenant lane of `shard` is empty (the foreign-slot
  /// idleness test work-stealing keys on).
  [[nodiscard]] bool shard_empty(std::size_t shard) const noexcept;
  /// True when `slot` may take `batch` from shard `shard` at `now`
  /// (free, and either home/overflow or an idle foreign dedicated slot
  /// worth stealing onto).
  [[nodiscard]] bool slot_eligible(const Slot& slot, std::size_t shard,
                                   const Batch& batch,
                                   sim::Cycle now) const noexcept;
  /// True when taking `batch` from `home_queue` on a foreign dedicated
  /// slot beats waiting for the home slot (the reload-vs-wait trade, or
  /// an SLO about to be missed).
  [[nodiscard]] bool steal_worthwhile(std::size_t home_queue,
                                      const Batch& batch,
                                      sim::Cycle now) const noexcept;
  /// Removes and returns the head batch of queues_[index], maintaining
  /// the pending counters and tenant state.
  [[nodiscard]] PendingBatch pop_queue(std::size_t index);
  /// The EDF/WFQ pick-and-dispatch over queues first, first + stride, …:
  /// pops the most urgent (deadline, seq) head with an eligible slot and
  /// dispatches it. Returns its story count (0 when nothing could go).
  [[nodiscard]] std::size_t dispatch_most_urgent(std::size_t first,
                                                 std::size_t stride,
                                                 sim::Cycle now);
  /// One WFQ dispatch: the least-served tenant with a dispatchable batch
  /// goes and pays stories/weight. False when no tenant could go.
  [[nodiscard]] bool dispatch_wfq(sim::Cycle now);
  void step_fifo(sim::Cycle now);
  [[nodiscard]] Slot* pick_slot_fifo(std::size_t task, sim::Cycle now);
  /// EDF/WFQ slot choice for shard `queue`: home, then warm, then empty,
  /// then the least recently dispatched among `free_slots` (already
  /// filtered to the shard's eligible set, id-ordered).
  [[nodiscard]] Slot* choose_slot_edf(const std::vector<Slot*>& free_slots,
                                      std::size_t queue, std::size_t task);
  void dispatch(Slot& slot, const PendingBatch& pending, sim::Cycle now,
                bool stolen);
  /// Prefetch: simulate `batch` on a worker with the affinity-predicted
  /// warm/cold variant and publish the result into the cache. Returns the
  /// predicted variant (1 warm / 0 cold) for dispatch-time scoring.
  [[nodiscard]] std::int8_t speculate(const Batch& batch);
  [[nodiscard]] bool task_resident_anywhere(std::size_t task) const noexcept;
  [[nodiscard]] sim::Cycle reload_estimate(std::size_t task) const noexcept;

  SchedulerConfig config_;
  std::vector<accel::Accelerator> task_devices_;
  std::vector<Slot> slots_;
  /// Shard-major, tenant-lane-minor: queues_[shard * tenant_lanes_ +
  /// lane]. One shard per dedicated slot (a single shared shard when the
  /// pool is undedicated); one tenant lane per registry entry under kWfq
  /// (a single lane when built under kFifo/kEdf). begin() of each queue
  /// is its most urgent batch under the configured policy.
  std::vector<PendingQueue> queues_;
  std::size_t shards_ = 1;
  std::size_t tenant_lanes_ = 1;
  std::span<const TenantConfig> tenant_registry_;  ///< WFQ weights (live)
  std::vector<TenantQueueState> tenants_;  ///< one per tenant lane
  double global_virtual_ = 0.0;  ///< WFQ virtual time (min served level)
  std::size_t pending_total_ = 0;
  std::size_t pending_stories_ = 0;
  std::size_t queue_capacity_ = 0;
  std::uint64_t next_seq_ = 0;
  /// A dispatched response and its place in dispatch order.
  struct InFlight {
    InferenceResponse response;
    std::uint64_t seq = 0;
  };
  /// Min-heap on complete_cycle: its front is the next completion, so
  /// collect() and next_completion() read only what is due.
  std::vector<InFlight> in_flight_;
  std::vector<InFlight> due_;  ///< collect()'s work buffer
  std::vector<InferenceResponse> collected_;  ///< collect()'s answer
  std::uint64_t responses_dispatched_ = 0;    ///< the next InFlight::seq
  /// dispatch_most_urgent()'s eligible slots, kept between dispatches so
  /// that a dispatch allocates nothing.
  std::vector<Slot*> free_slots_;
  sim::OpCounts device_ops_;
  sim::Cycle link_active_cycles_ = 0;
  std::vector<TaskCycleEstimate> task_cycles_;
  /// Per-shard task of the most recently *submitted* batch — the
  /// affinity predictor's residency estimate (nullopt before the shard's
  /// first submit).
  std::vector<std::optional<std::size_t>> speculation_tail_;
  SpeculationStats speculation_;
  std::unique_ptr<accel::ServiceCycleCache> owned_cache_;
  accel::ServiceCycleCache* cache_ = nullptr;  ///< owned or external
  obs::TraceRecorder* trace_ = nullptr;        ///< non-owning, may be null
  // Mirrored obs instruments (null without a registry).
  obs::Counter* obs_dispatches_ = nullptr;
  obs::Counter* obs_model_uploads_ = nullptr;
  obs::Counter* obs_model_evictions_ = nullptr;
  obs::Counter* obs_stolen_batches_ = nullptr;
  obs::Counter* obs_eviction_victims_ = nullptr;
  obs::Counter* obs_speculations_ = nullptr;
  obs::Histogram* obs_queue_wait_ = nullptr;  ///< enqueue→dispatch cycles
  /// Declared last: its destructor joins the workers while the devices
  /// and cache they reference are still alive.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace mann::serve
