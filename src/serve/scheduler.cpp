#include "serve/scheduler.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace mann::serve {

namespace {

/// The in-flight heap's order: std::push_heap and std::pop_heap keep the
/// greatest element in front, so the later completion compares less.
/// Ties need no order: collect() sorts what is due by dispatch sequence.
constexpr auto completes_later = [](const auto& a, const auto& b) {
  return a.response.complete_cycle > b.response.complete_cycle;
};

}  // namespace

const char* scheduler_policy_name(SchedulerPolicy policy) noexcept {
  switch (policy) {
    case SchedulerPolicy::kFifo:
      return "fifo";
    case SchedulerPolicy::kEdf:
      return "edf";
    case SchedulerPolicy::kWfq:
      return "wfq";
  }
  return "unknown";
}

Scheduler::Scheduler(SchedulerConfig config,
                     std::vector<accel::Accelerator> task_devices,
                     std::span<const TenantConfig> tenants)
    : config_(config), task_devices_(std::move(task_devices)),
      tenant_registry_(tenants) {
  if (config_.devices == 0) {
    throw std::invalid_argument("Scheduler: need at least one device");
  }
  if (task_devices_.empty()) {
    throw std::invalid_argument("Scheduler: no task programs");
  }
  config_.dedicated_devices =
      std::min(config_.dedicated_devices, config_.devices);
  queue_capacity_ = std::max<std::size_t>(1, config_.queue_capacity);
  slots_.resize(config_.devices);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].id = i;
  }
  // One shard per dedicated slot (a single shared shard when the whole
  // pool is shared); under kWfq each shard fans out into one EDF lane
  // per registered tenant. The lanes order themselves by the policy (WFQ
  // lanes are EDF within the tenant).
  shards_ = config_.dedicated_devices > 0 ? config_.dedicated_devices : 1;
  for (const TenantConfig& tenant : tenant_registry_) {
    validate_tenant(tenant);
  }
  if (config_.policy == SchedulerPolicy::kWfq) {
    tenant_lanes_ = std::max<std::size_t>(1, tenant_registry_.size());
  }
  tenants_.resize(tenant_lanes_);
  const SchedulerPolicy order = config_.policy == SchedulerPolicy::kFifo
                                    ? SchedulerPolicy::kFifo
                                    : SchedulerPolicy::kEdf;
  queues_.assign(shards_ * tenant_lanes_, PendingQueue(PendingOrder{order}));
  task_cycles_.resize(task_devices_.size());
  speculation_tail_.resize(shards_);
  cache_ = config_.cycle_cache;
  if (cache_ == nullptr && config_.workers > 0) {
    owned_cache_ = std::make_unique<accel::ServiceCycleCache>(
        config_.cache_capacity == 0 ? 1 : config_.cache_capacity,
        config_.metrics);
    // Cost-informed sizing for the owned cache: evict the entry cheapest
    // to re-simulate (its cycles ARE its reload cost). External caches
    // are configured by their owner.
    owned_cache_->set_eviction_policy(EvictionPolicyKind::kCostAware);
    cache_ = owned_cache_.get();
  }
  if (config_.workers > 0) {
    pool_ = std::make_unique<WorkerPool>(config_.workers, config_.metrics);
  }
  trace_ = config_.trace;
  obs_dispatches_ = obs::counter(config_.metrics, "serve.scheduler.dispatches");
  obs_model_uploads_ =
      obs::counter(config_.metrics, "serve.scheduler.model_uploads");
  obs_model_evictions_ =
      obs::counter(config_.metrics, "serve.scheduler.model_evictions");
  obs_stolen_batches_ =
      obs::counter(config_.metrics, "serve.scheduler.stolen_batches");
  obs_eviction_victims_ =
      obs::counter(config_.metrics, "serve.eviction.victims");
  obs_speculations_ =
      obs::counter(config_.metrics, "serve.scheduler.speculations");
  obs_queue_wait_ =
      obs::histogram(config_.metrics, "serve.scheduler.queue_wait_cycles");
}

std::size_t Scheduler::queue_for(std::size_t task) const noexcept {
  return config_.dedicated_devices > 0 ? task % config_.dedicated_devices
                                       : 0;
}

bool Scheduler::shard_empty(std::size_t shard) const noexcept {
  for (std::size_t lane = 0; lane < tenant_lanes_; ++lane) {
    if (!queues_[lane_index(shard, lane)].empty()) {
      return false;
    }
  }
  return true;
}

bool Scheduler::submit(Batch batch) {
  if (batch.task >= task_devices_.size()) {
    throw std::out_of_range("Scheduler: unknown task id");
  }
  if (batch.requests.empty()) {
    throw std::invalid_argument("Scheduler: empty batch");
  }
  if (tenant_lanes_ > 1 && batch.tenant >= tenant_lanes_) {
    throw std::out_of_range("Scheduler: batch tenant outside the WFQ "
                            "tenant registry");
  }
  if (!has_capacity()) {
    return false;
  }
  const std::int8_t predicted = pool_ != nullptr ? speculate(batch) : -1;
  const std::size_t lane = tenant_lanes_ > 1 ? batch.tenant : 0;
  TenantQueueState& tenant = tenants_[lane];
  if (tenant.pending == 0) {
    // (Re)activation: a tenant returning from idle resumes at the
    // current virtual time instead of cashing in credit for the
    // capacity it never used.
    tenant.virtual_finish = std::max(tenant.virtual_finish, global_virtual_);
  }
  ++tenant.pending;
  const std::size_t index = lane_index(queue_for(batch.task), lane);
  pending_stories_ += batch.size();
  queues_[index].insert({std::move(batch), next_seq_++, predicted});
  ++pending_total_;
  return true;
}

bool Scheduler::task_resident_anywhere(std::size_t task) const noexcept {
  for (const Slot& slot : slots_) {
    if (slot.resident_task == task) {
      return true;
    }
  }
  return false;
}

sim::Cycle Scheduler::reload_estimate(std::size_t task) const noexcept {
  const TaskCycleEstimate& est = task_cycles_[task];
  if (est.cold > 0 && est.warm > 0 && est.cold > est.warm) {
    return est.cold - est.warm;  // the pure model-upload delta
  }
  return est.cold;  // warm variant not yet observed: whole cold run
}

sim::Cycle Scheduler::service_estimate(std::size_t task) const noexcept {
  if (task >= task_cycles_.size()) {
    return 0;
  }
  const TaskCycleEstimate& est = task_cycles_[task];
  return est.warm > 0 ? est.warm : est.cold;
}

sim::Cycle Scheduler::backlog_cycles(sim::Cycle now) const noexcept {
  sim::Cycle total = 0;
  for (const Slot& slot : slots_) {
    if (slot.busy_until > now) {
      total += slot.busy_until - now;
    }
  }
  for (const PendingQueue& queue : queues_) {
    for (const PendingBatch& pending : queue) {
      total += service_estimate(pending.batch.task);
    }
  }
  return total;
}

std::int8_t Scheduler::speculate(const Batch& batch) {
  // Predict the warm/cold variant the dispatch will need. A mispredict
  // never affects correctness — dispatch simulates the variant it needs
  // inline — it only wastes the worker's run, so the predictor's job is
  // purely to keep workers useful.
  //
  // Affinity predictor: within a shard, submit order approximates
  // dispatch order, so the shard's most recently *submitted* task is the
  // best estimate of what its slot will hold when this batch reaches the
  // device. Under churn (more tasks than slots) consecutive same-task
  // batches still predict warm while everything else correctly predicts
  // cold, and on small task sets it predicts warm one submit earlier
  // than waiting to observe residency. Before the shard's first submit,
  // fall back to current residency (the home slot's for a dedicated
  // shard, anywhere for the shared pool).
  bool warm = false;
  const std::size_t shard = queue_for(batch.task);
  if (const auto& tail = speculation_tail_[shard]; tail.has_value()) {
    warm = *tail == batch.task;
  } else if (config_.dedicated_devices > 0) {
    warm = slots_[shard].resident_task == batch.task;
  } else {
    warm = task_resident_anywhere(batch.task);
  }
  speculation_tail_[shard] = batch.task;
  ++speculation_.speculated;
  auto stories =
      std::make_shared<const std::vector<const data::EncodedStory*>>(
          batch.stories);
  const accel::Accelerator& device = task_devices_[batch.task];
  accel::ServiceCycleCache* cache = cache_;
  obs::add(obs_speculations_);
  obs::TraceRecorder* trace = trace_;
  const auto task = static_cast<std::int64_t>(batch.task);
  pool_->submit([&device, cache, stories, warm, trace, task] {
    accel::RunOptions options;
    options.model_resident = warm;
    options.cycle_cache = cache;
    accel::CacheOutcome outcome = accel::CacheOutcome::kNone;
    options.cache_outcome = &outcome;
    const std::uint64_t start_ns = trace != nullptr ? trace->wall_ns() : 0;
    try {
      (void)device.run(*stories, options);
    } catch (...) {
      // Speculation is best-effort: a failing workload (e.g. watchdog)
      // fails again — with a proper throw — when dispatched inline.
    }
    if (trace != nullptr) {
      // Host-domain span on the worker's own track: where the wall
      // clock went, never part of the deterministic simulated slice.
      const std::uint32_t track =
          obs::kTrackWorkerBase +
          static_cast<std::uint32_t>(WorkerPool::current_worker() ==
                                             WorkerPool::kNotAWorker
                                         ? 0
                                         : WorkerPool::current_worker());
      trace->complete(obs::Domain::kHost, track, "speculate", start_ns,
                      trace->wall_ns() - start_ns,
                      accel::cache_outcome_name(outcome), task);
    }
  });
  return warm ? 1 : 0;
}

bool Scheduler::set_policy(SchedulerPolicy policy) {
  if (policy == config_.policy) {
    return true;
  }
  if (policy == SchedulerPolicy::kWfq && tenant_lanes_ <= 1) {
    // The per-tenant lane layout is fixed at construction; without it
    // WFQ has nothing to arbitrate over.
    return false;
  }
  // The queues' comparator is FIFO (seq) or EDF ((deadline, seq)); WFQ
  // lanes are EDF within the tenant. Re-key every pending batch when the
  // ordering changes; counters (pending totals, tenant lane bookkeeping)
  // describe membership, not order, so they carry over untouched.
  const auto order_of = [](SchedulerPolicy p) {
    return p == SchedulerPolicy::kFifo ? SchedulerPolicy::kFifo
                                       : SchedulerPolicy::kEdf;
  };
  if (order_of(policy) != order_of(config_.policy)) {
    for (PendingQueue& queue : queues_) {
      PendingQueue rekeyed(PendingOrder{order_of(policy)});
      while (!queue.empty()) {
        rekeyed.insert(std::move(queue.extract(queue.begin()).value()));
      }
      queue = std::move(rekeyed);
    }
  }
  config_.policy = policy;
  return true;
}

void Scheduler::step(sim::Cycle now) {
  switch (config_.policy) {
    case SchedulerPolicy::kFifo:
      step_fifo(now);
      return;
    case SchedulerPolicy::kEdf:
      while (dispatch_most_urgent(0, 1, now) > 0) {
      }
      return;
    case SchedulerPolicy::kWfq:
      while (dispatch_wfq(now)) {
      }
      return;
  }
}

Scheduler::PendingBatch Scheduler::pop_queue(std::size_t index) {
  PendingQueue& queue = queues_[index];
  auto node = queue.extract(queue.begin());
  PendingBatch pending = std::move(node.value());
  --pending_total_;
  pending_stories_ -= pending.batch.size();
  --tenants_[index % tenant_lanes_].pending;
  return pending;
}

void Scheduler::step_fifo(sim::Cycle now) {
  // Legacy head-of-line order: the globally oldest batch waits for a
  // suitable slot before anything behind it dispatches (deterministic,
  // starvation-free, and exactly the pre-EDF timeline). Under kFifo the
  // queues order by seq, so each begin() is its shard's oldest batch.
  while (pending_total_ > 0) {
    std::size_t best_queue = queues_.size();
    std::uint64_t best_seq = 0;
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      if (queues_[q].empty()) {
        continue;
      }
      const std::uint64_t seq = queues_[q].begin()->seq;
      if (best_queue == queues_.size() || seq < best_seq) {
        best_queue = q;
        best_seq = seq;
      }
    }
    Slot* slot =
        pick_slot_fifo(queues_[best_queue].begin()->batch.task, now);
    if (slot == nullptr) {
      return;  // head-of-line batch waits; nothing behind it jumps ahead
    }
    const PendingBatch pending = pop_queue(best_queue);
    dispatch(*slot, pending, now, /*stolen=*/false);
  }
}

Scheduler::Slot* Scheduler::pick_slot_fifo(std::size_t task,
                                           sim::Cycle now) {
  // Home slot first: per-task sharding keeps a task's program warm.
  if (config_.dedicated_devices > 0) {
    Slot& home = slots_[task % config_.dedicated_devices];
    if (home.free(now)) {
      return &home;
    }
  }
  // Overflow pool: prefer a warm slot (program already resident), then
  // the lowest-numbered free one (deterministic tie-break).
  Slot* fallback = nullptr;
  for (std::size_t i = config_.dedicated_devices; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.free(now)) {
      continue;
    }
    if (slot.resident_task == task) {
      return &slot;
    }
    if (fallback == nullptr) {
      fallback = &slot;
    }
  }
  return fallback;
}

bool Scheduler::steal_worthwhile(std::size_t home_queue, const Batch& batch,
                                 sim::Cycle now) const noexcept {
  // A steal must buy something. When the home slot holds the batch's
  // program, stealing forfeits a warm dispatch — it is only worth it if
  // the wait for home exceeds the model-reload cost the steal re-pays,
  // or if waiting would blow the batch's deadline. When home is *not*
  // warm for this task, the dispatch pays a cold upload wherever it
  // lands, so any idle slot beats waiting. All inputs are simulated
  // state, so the decision replays deterministically.
  const Slot& home = slots_[home_queue];
  const sim::Cycle wait =
      home.busy_until > now ? home.busy_until - now : 0;
  if (wait == 0) {
    return false;  // home is free; stealing could only hurt
  }
  if (home.resident_task != batch.task) {
    return true;  // cold either way: stealing purely saves the wait
  }
  const sim::Cycle reload = reload_estimate(batch.task);
  if (wait > reload) {
    return true;
  }
  if (batch.deadline != sim::kNever) {
    const TaskCycleEstimate& est = task_cycles_[batch.task];
    const sim::Cycle service = est.warm > 0 ? est.warm : est.cold;
    if (now + wait + service > batch.deadline) {
      return true;  // waiting misses the SLO; stealing might not
    }
  }
  return false;
}

bool Scheduler::slot_eligible(const Slot& slot, std::size_t shard,
                              const Batch& batch,
                              sim::Cycle now) const noexcept {
  // Eligible free slots for a shard's batch: its home slot, the overflow
  // pool, and any foreign dedicated slot that is idle (free with an empty
  // shard) when stealing the batch onto it is worth the reload.
  if (!slot.free(now)) {
    return false;
  }
  const std::size_t dedicated = config_.dedicated_devices;
  if (dedicated == 0 || slot.id >= dedicated || slot.id == shard) {
    return true;
  }
  return shard_empty(slot.id) && steal_worthwhile(shard, batch, now);
}

std::size_t Scheduler::dispatch_most_urgent(std::size_t first,
                                            std::size_t stride,
                                            sim::Cycle now) {
  // Urgency key: deadline first (kNever sorts last, so SLO-free batches
  // degrade to submit order), admission sequence as the deterministic
  // tie-break. Each queue keeps that order, so its begin() is the
  // queue's most urgent batch. A queue's shard is its index with the
  // tenant lanes divided out (after a live switch from kWfq to kEdf the
  // lanes persist, and EDF simply scans every lane of every shard).
  using Key = std::tuple<sim::Cycle, std::uint64_t>;
  std::size_t best_queue = queues_.size();
  Key best_key{};
  for (std::size_t q = first; q < queues_.size(); q += stride) {
    if (queues_[q].empty()) {
      continue;
    }
    const PendingBatch& head = *queues_[q].begin();
    const Key key{head.batch.deadline, head.seq};
    if (best_queue != queues_.size() && best_key < key) {
      continue;  // a more urgent head already has a slot lined up
    }
    const std::size_t shard = q / tenant_lanes_;
    if (std::none_of(slots_.begin(), slots_.end(), [&](const Slot& slot) {
          return slot_eligible(slot, shard, head.batch, now);
        })) {
      continue;
    }
    best_queue = q;
    best_key = key;
  }
  if (best_queue == queues_.size()) {
    return 0;
  }
  const std::size_t shard = best_queue / tenant_lanes_;
  const PendingBatch pending = pop_queue(best_queue);
  free_slots_.clear();
  for (Slot& slot : slots_) {
    if (slot_eligible(slot, shard, pending.batch, now)) {
      free_slots_.push_back(&slot);
    }
  }
  Slot* slot = choose_slot_edf(free_slots_, shard, pending.batch.task);
  const std::size_t dedicated = config_.dedicated_devices;
  const bool stolen =
      dedicated > 0 && slot->id < dedicated && slot->id != shard;
  dispatch(*slot, pending, now, stolen);
  return pending.batch.size();
}

bool Scheduler::dispatch_wfq(sim::Cycle now) {
  // Tenants in (virtual finish, id) order: the least-served active
  // tenant whose work can actually go wins the dispatch; a flooding
  // tenant only advances its own virtual time, so it cannot displace a
  // conforming tenant's turn.
  std::vector<std::size_t> order;
  order.reserve(tenant_lanes_);
  for (std::size_t lane = 0; lane < tenant_lanes_; ++lane) {
    if (tenants_[lane].pending > 0) {
      order.push_back(lane);
    }
  }
  std::sort(order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) {
              if (tenants_[a].virtual_finish != tenants_[b].virtual_finish) {
                return tenants_[a].virtual_finish <
                       tenants_[b].virtual_finish;
              }
              return a < b;
            });

  for (const std::size_t lane : order) {
    // Within the tenant: EDF across its shard lanes.
    const std::size_t stories =
        dispatch_most_urgent(lane, tenant_lanes_, now);
    if (stories == 0) {
      continue;  // this tenant's work is slot-blocked; try the next one
    }
    // Virtual-time charge: the global clock advances to the winner's
    // pre-charge level (the least-served active tenant defines "now"),
    // then the tenant pays stories/weight for the slot it just took (an
    // empty registry is one lane of weight 1).
    const double weight = lane < tenant_registry_.size()
                              ? tenant_registry_[lane].weight
                              : 1.0;
    TenantQueueState& tenant = tenants_[lane];
    global_virtual_ = std::max(global_virtual_, tenant.virtual_finish);
    tenant.virtual_finish += static_cast<double>(stories) / weight;
    return true;
  }
  return false;
}

Scheduler::Slot* Scheduler::choose_slot_edf(
    const std::vector<Slot*>& free_slots, std::size_t queue,
    std::size_t task) {
  // Home first (sharding stability keeps the shard's programs warm).
  if (config_.dedicated_devices > 0) {
    for (Slot* slot : free_slots) {
      if (slot->id == queue) {
        return slot;
      }
    }
  }
  // Then a warm slot (no upload at all), then an empty one (upload but
  // no displacement); free_slots is id-ordered, so ties go low.
  for (Slot* slot : free_slots) {
    if (slot->resident_task == task) {
      return slot;
    }
  }
  for (Slot* slot : free_slots) {
    if (!slot->resident_task.has_value()) {
      return slot;
    }
  }
  // Every candidate displaces a resident model: the least recently
  // dispatched goes (min_element keeps the first, i.e. lowest, on ties).
  obs::add(obs_eviction_victims_);
  return *std::min_element(free_slots.begin(), free_slots.end(),
                           [](const Slot* a, const Slot* b) {
                             return a->last_dispatch_cycle <
                                    b->last_dispatch_cycle;
                           });
}

void Scheduler::dispatch(Slot& slot, const PendingBatch& pending,
                         sim::Cycle now, bool stolen) {
  const Batch& batch = pending.batch;
  const bool warm = slot.resident_task == batch.task;
  if (pending.predicted >= 0) {
    // Score the submit-time prediction against the variant this slot
    // actually needs. Both sides are simulated state, so the counts
    // replay identically for any worker count.
    const bool matched = (pending.predicted == 1) == warm;
    ++(matched ? speculation_.useful : speculation_.wasted);
    if (trace_ != nullptr) {
      // Host-domain like every speculation artifact: which runs were
      // wasted is invisible to the simulated timeline.
      trace_->instant(obs::Domain::kHost, obs::kTrackDispatch,
                      "speculation", trace_->wall_ns(),
                      matched ? "useful" : "wasted",
                      static_cast<std::int64_t>(batch.task), batch.tenant);
    }
  }
  accel::RunOptions options;
  options.model_resident = warm;
  // With caching on this usually replays a memoized (often speculatively
  // prefetched) result; acquire() blocks if a worker is mid-simulation
  // on exactly this workload, so work is never duplicated.
  options.cycle_cache = cache_;
  accel::CacheOutcome outcome = accel::CacheOutcome::kNone;
  options.cache_outcome = &outcome;
  const accel::RunResult run =
      task_devices_[batch.task].run(batch.stories, options);

  if (trace_ != nullptr) {
    // Device occupancy in the simulated domain. Only deterministic
    // attributes ride here (warm/cold is a pure function of the
    // timeline); how the host resolved the run against the cache is
    // worker-count-dependent, so it goes on a host-domain track and the
    // simulated slice of the trace stays byte-identical across worker
    // counts.
    trace_->complete(obs::Domain::kSim,
                     obs::kTrackDeviceBase +
                         static_cast<std::uint32_t>(slot.id),
                     "batch", now, run.total_cycles, warm ? "warm" : "cold",
                     static_cast<std::int64_t>(batch.task), batch.tenant,
                     static_cast<std::int64_t>(batch.size()));
    if (cache_ != nullptr) {
      trace_->instant(obs::Domain::kHost, obs::kTrackDispatch, "cache",
                      trace_->wall_ns(), accel::cache_outcome_name(outcome),
                      static_cast<std::int64_t>(batch.task), batch.tenant);
    }
  }
  obs::add(obs_dispatches_);
  if (!warm) {
    obs::add(obs_model_uploads_);
  }
  if (stolen) {
    obs::add(obs_stolen_batches_);
  }

  if (!warm && slot.resident_task.has_value()) {
    ++slot.model_evictions;  // the upload displaced another model
  }
  slot.resident_task = batch.task;
  slot.busy_until = now + run.total_cycles;
  slot.busy_cycles += run.total_cycles;
  slot.last_dispatch_cycle = now;
  ++slot.batches;
  slot.stories += batch.size();
  slot.model_uploads += warm ? 0 : 1;
  slot.stolen_batches += stolen ? 1 : 0;
  TaskCycleEstimate& estimate = task_cycles_[batch.task];
  (warm ? estimate.warm : estimate.cold) = run.total_cycles;
  device_ops_ += run.total_ops;
  link_active_cycles_ += run.link_active_cycles;

  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const InferenceRequest& request = batch.requests[i];
    InferenceResponse response;
    response.id = request.id;
    response.task = request.task;
    response.tenant = request.tenant;
    response.device = slot.id;
    response.batch_size = batch.size();
    response.prediction = run.stories[i].prediction;
    response.answer = batch.stories[i]->answer;
    response.early_exit = run.stories[i].early_exit;
    response.enqueue_cycle = request.enqueue_cycle;
    response.deadline_cycle = request.deadline_cycle;
    response.dispatch_cycle = now;
    // finish_cycle is relative to the batch's own run; rebased onto the
    // serving clock it gives per-story completion inside the batch.
    response.complete_cycle = now + run.stories[i].finish_cycle;
    obs::observe(obs_queue_wait_, now - request.enqueue_cycle);
    if (trace_ != nullptr) {
      // Completion times are known now (the simulation already ran), so
      // the service span closes immediately at its future end cycle —
      // timestamps, not recording order, define the timeline.
      trace_->end_async("pending", request.id, now);
      trace_->begin_async("service", request.id, now,
                          static_cast<std::int64_t>(request.task),
                          request.tenant);
      trace_->end_async("service", request.id, response.complete_cycle);
      trace_->end_async("request", request.id, response.complete_cycle);
    }
    in_flight_.push_back({response, responses_dispatched_++});
    std::push_heap(in_flight_.begin(), in_flight_.end(), completes_later);
  }
}

const std::vector<InferenceResponse>& Scheduler::collect(sim::Cycle now) {
  // The due responses leave the heap in completion order; the metrics
  // take them in dispatch order.
  due_.clear();
  while (!in_flight_.empty() &&
         in_flight_.front().response.complete_cycle <= now) {
    std::pop_heap(in_flight_.begin(), in_flight_.end(), completes_later);
    due_.push_back(std::move(in_flight_.back()));
    in_flight_.pop_back();
  }
  std::sort(due_.begin(), due_.end(),
            [](const InFlight& a, const InFlight& b) { return a.seq < b.seq; });
  collected_.clear();
  for (InFlight& due : due_) {
    collected_.push_back(std::move(due.response));
  }
  return collected_;
}

sim::Cycle Scheduler::next_completion() const noexcept {
  return in_flight_.empty() ? sim::kNever
                            : in_flight_.front().response.complete_cycle;
}

sim::Cycle Scheduler::next_slot_free(sim::Cycle now) const noexcept {
  sim::Cycle next = sim::kNever;
  for (const Slot& slot : slots_) {
    // Already-free slots must not report a stale past busy_until: that
    // would veto every event skip while a batch waits on a busy slot.
    if (slot.busy_until > now) {
      next = std::min(next, slot.busy_until);
    }
  }
  return next;
}

std::vector<DeviceReport> Scheduler::device_reports() const {
  std::vector<DeviceReport> reports;
  reports.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    DeviceReport report;
    report.id = slot.id;
    report.resident_task = slot.resident_task;
    report.busy_cycles = slot.busy_cycles;
    report.batches = slot.batches;
    report.stories = slot.stories;
    report.model_uploads = slot.model_uploads;
    report.model_evictions = slot.model_evictions;
    report.stolen_batches = slot.stolen_batches;
    reports.push_back(report);
  }
  return reports;
}

std::uint64_t Scheduler::total_model_uploads() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.model_uploads;
  }
  return total;
}

std::uint64_t Scheduler::total_model_evictions() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.model_evictions;
  }
  return total;
}

std::uint64_t Scheduler::total_stolen_batches() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.stolen_batches;
  }
  return total;
}

void Scheduler::quiesce() {
  if (pool_ != nullptr) {
    pool_->wait_idle();
  }
}

accel::ServiceCycleCacheStats Scheduler::cache_stats() const {
  return cache_ != nullptr ? cache_->stats()
                           : accel::ServiceCycleCacheStats{};
}

}  // namespace mann::serve
