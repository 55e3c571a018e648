#include "serve/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/module.hpp"

namespace mann::serve {

namespace {

/// Validates the tenant registry and threads the obs sinks into the
/// scheduler.
ServerConfig resolve_config(ServerConfig config) {
  for (const TenantConfig& tenant : config.traffic.tenants) {
    validate_tenant(tenant);
  }
  config.scheduler.metrics = config.metrics;
  config.scheduler.trace = config.trace;
  return config;
}

std::vector<std::span<const data::EncodedStory>> make_corpora(
    const std::vector<ServedModel>& models) {
  if (models.empty()) {
    throw std::invalid_argument("ServerSession: no models to serve");
  }
  std::vector<std::span<const data::EncodedStory>> corpora;
  corpora.reserve(models.size());
  for (const ServedModel& model : models) {
    if (model.stories.empty()) {
      throw std::invalid_argument("ServerSession: model with empty corpus");
    }
    corpora.push_back(model.stories);
  }
  return corpora;
}

std::vector<accel::Accelerator> make_devices(
    const accel::AccelConfig& accel, const std::vector<ServedModel>& models) {
  std::vector<accel::Accelerator> devices;
  devices.reserve(models.size());
  for (const ServedModel& model : models) {
    devices.emplace_back(accel, model.program);
  }
  return devices;
}

}  // namespace

/// Frontend: pulls due submitted arrivals through the admission
/// controller into the batcher. Every refusal — an admission decision or
/// the batcher's full lane — lands in the controller's unified
/// ShedReason accounting and in the session outbox as a shed Completion.
class ServerSession::Frontend final : public sim::Module {
 public:
  explicit Frontend(ServerSession& session)
      : Module("FRONTEND"), s_(session) {}

  void tick() {
    const sim::Cycle now = s_.simulator_.now();
    while (!s_.arrivals_.empty() &&
           s_.arrivals_.front().enqueue_cycle <= now) {
      const InferenceRequest request = s_.arrivals_.front();
      s_.arrivals_.pop_front();
      // The outlook snapshots the downstream state the controller judges
      // against: total pending requests for occupancy, and the
      // scheduler's own cost model for the doom test. backlog_cycles
      // walks every pending batch, so it is only priced when a doom
      // decision can actually consume it — the transparent/legacy paths
      // stay O(1) per arrival.
      AdmissionOutlook outlook;
      outlook.pending_requests =
          s_.batcher_.pending() + s_.scheduler_.pending_stories();
      if (s_.admission_.config().shed_doomed &&
          request.deadline_cycle != sim::kNever) {
        outlook.service_estimate =
            s_.scheduler_.service_estimate(request.task);
        outlook.backlog_cycles_per_device =
            s_.scheduler_.backlog_cycles(now) /
            s_.scheduler_.config().devices;
      }
      obs::TraceRecorder* trace = s_.config_.trace;
      if (trace != nullptr) {
        trace->begin_async(
            "request", request.id, now,
            static_cast<std::int64_t>(request.task), request.tenant,
            static_cast<std::int64_t>(request.deadline_cycle));
      }
      std::optional<ShedReason> shed;
      if (const std::optional<ShedReason> reason =
              s_.admission_.decide(request, now, outlook)) {
        s_.admission_.record_shed(request.tenant, *reason);
        shed = reason;
      } else if (!s_.batcher_.enqueue(request)) {
        s_.admission_.record_shed(request.tenant, ShedReason::kQueueFull);
        shed = ShedReason::kQueueFull;
      } else {
        s_.admission_.record_admitted(request.tenant);
      }
      if (trace != nullptr) {
        if (shed.has_value()) {
          // A shed request's lifecycle ends at the frontend: an instant
          // carrying the ShedReason, then the request span closes.
          trace->instant(obs::Domain::kSim, obs::kTrackFrontend, "shed",
                         now, shed_reason_name(*shed),
                         static_cast<std::int64_t>(request.task),
                         request.tenant);
          trace->end_async("request", request.id, now);
        } else {
          trace->begin_async("queued", request.id, now,
                             static_cast<std::int64_t>(request.task),
                             request.tenant);
        }
      }
      if (shed.has_value()) {
        // Sheds resolve here and now: a Completion with a partial
        // response (identity + timing of the refusal, no answer).
        Completion completion;
        completion.outcome = outcome_from_shed(*shed);
        completion.cycle = now;
        completion.response.id = request.id;
        completion.response.task = request.task;
        completion.response.tenant = request.tenant;
        completion.response.enqueue_cycle = request.enqueue_cycle;
        completion.response.complete_cycle = now;
        completion.response.deadline_cycle = request.deadline_cycle;
        s_.outbox_.push_back(std::move(completion));
      }
      mark_busy();
    }
  }

  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle /*now*/) const {
    return s_.next_arrival();
  }

 private:
  ServerSession& s_;
};

/// Moves ready batches from the batcher into the scheduler, respecting
/// the scheduler's queue bound (back-pressure instead of drop). Once the
/// session is draining and every submitted request has arrived, flushes
/// sub-size leftovers immediately rather than letting them age to the
/// timeout.
class ServerSession::BatchStage final : public sim::Module {
 public:
  explicit BatchStage(ServerSession& session)
      : Module("BATCHER"), s_(session) {}

  void tick() {
    const sim::Cycle now = s_.simulator_.now();
    while (s_.scheduler_.has_capacity()) {
      std::optional<Batch> batch = s_.batcher_.poll(now);
      if (!batch && s_.drain_ready()) {
        batch = s_.batcher_.drain(now);
      }
      if (!batch) {
        return;
      }
      obs::TraceRecorder* trace = s_.config_.trace;
      if (trace != nullptr) {
        // Batch formation closes every member's lane residence and opens
        // its scheduler-queue wait (the scheduler closes "pending" at
        // dispatch — it knows the dispatch cycle, this module does not).
        for (const InferenceRequest& request : batch->requests) {
          trace->end_async("queued", request.id, now);
          trace->begin_async("pending", request.id, now,
                             static_cast<std::int64_t>(request.task),
                             request.tenant);
        }
      }
      if (!s_.scheduler_.submit(*std::move(batch))) {
        throw std::logic_error("BatchStage: submit after has_capacity");
      }
      mark_busy();
    }
  }

  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const {
    if (s_.batcher_.pending() == 0) {
      return sim::kNever;
    }
    if (s_.drain_ready() || !s_.scheduler_.has_capacity()) {
      // Drain mode or blocked on downstream: may act at the very next
      // tick, so report the current clock (vetoes any skip past it).
      return now;
    }
    // Waiting to fill: wake at the oldest request's timeout. A fill-up
    // wakes us anyway via the frontend's arrival horizon.
    return s_.batcher_.next_deadline();
  }

 private:
  ServerSession& s_;
};

/// Drives the device pool, feeds completed responses to the metrics and
/// mirrors them into the outbox.
class ServerSession::Dispatch final : public sim::Module {
 public:
  explicit Dispatch(ServerSession& session)
      : Module("DISPATCH"), s_(session) {}

  void tick() {
    const sim::Cycle now = s_.simulator_.now();
    s_.scheduler_.step(now);
    for (const InferenceResponse& response : s_.scheduler_.collect(now)) {
      s_.metrics_.record(response);
      s_.last_completion_ =
          std::max(s_.last_completion_, response.complete_cycle);
      Completion completion;
      completion.outcome = outcome_from_response(response);
      completion.cycle = response.complete_cycle;
      completion.response = response;
      s_.outbox_.push_back(std::move(completion));
      mark_busy();
    }
  }

  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const {
    if (s_.scheduler_.pending_batches() > 0) {
      // Next dispatch opportunity: a slot freeing (conservative — a past
      // cycle just vetoes the skip and falls back to per-cycle ticking).
      return std::min(s_.scheduler_.next_slot_free(now),
                      s_.scheduler_.next_completion());
    }
    return s_.scheduler_.next_completion();
  }

 private:
  ServerSession& s_;
};

ServerSession::ServerSession(ServerConfig config,
                             const std::vector<ServedModel>& models,
                             RequestId first_id)
    : config_(resolve_config(std::move(config))),
      corpora_(make_corpora(models)),
      tenants_(config_.traffic.tenants),
      slo_(config_.traffic.slo),
      admission_(config_.admission, tenants_, config_.metrics),
      batcher_(config_.batcher, models.size(),
               std::max<std::size_t>(1, config_.traffic.tenants.size()),
               config_.metrics),
      scheduler_(config_.scheduler, make_devices(config_.accel, models),
                 tenants_),
      metrics_(config_.accel.clock_hz, config_.power),
      cursors_(models.size(), 0),
      next_id_(first_id) {
  frontend_ = std::make_unique<Frontend>(*this);
  batch_stage_ = std::make_unique<BatchStage>(*this);
  dispatch_ = std::make_unique<Dispatch>(*this);
}

ServerSession::~ServerSession() = default;

sim::Cycle ServerSession::deadline_for(std::size_t task,
                                       TenantId tenant) const noexcept {
  // The tenant's override when set, else the task's SLO, from the live
  // tables.
  if (tenant < tenants_.size() &&
      tenants_[tenant].slo_deadline_cycles != 0) {
    return tenants_[tenant].slo_deadline_cycles;
  }
  return slo_.deadline_for(task);
}

void ServerSession::check_submit(const SubmitRequest& request) const {
  if (request.task >= corpora_.size()) {
    throw std::out_of_range("ServerSession: task " +
                            std::to_string(request.task) + " outside the " +
                            std::to_string(corpora_.size()) +
                            "-model registry");
  }
  if (request.tenant >= num_tenants()) {
    throw std::out_of_range("ServerSession: tenant " +
                            std::to_string(request.tenant) +
                            " outside the " +
                            std::to_string(num_tenants()) +
                            "-entry registry");
  }
  if (request.at_cycle >= config_.watchdog_cycles) {
    throw std::out_of_range("ServerSession: arrival cycle " +
                            std::to_string(request.at_cycle) +
                            " at or past the " +
                            std::to_string(config_.watchdog_cycles) +
                            "-cycle serving watchdog");
  }
}

RequestId ServerSession::submit(const SubmitRequest& request) {
  if (finalized_) {
    throw std::logic_error("ServerSession: submit after finalize()");
  }
  check_submit(request);
  InferenceRequest arrival;
  arrival.id = next_id_++;
  arrival.task = request.task;
  arrival.tenant = request.tenant;
  const std::span<const data::EncodedStory> corpus = corpora_[request.task];
  std::size_t& cursor = cursors_[request.task];
  arrival.story = &corpus[cursor];
  cursor = (cursor + 1) % corpus.size();
  const sim::Cycle at =
      std::max({request.at_cycle, simulator_.now(), last_arrival_});
  last_arrival_ = at;
  arrival.enqueue_cycle = at;
  if (request.deadline_cycles == sim::kNever) {
    arrival.deadline_cycle = sim::kNever;
  } else if (request.deadline_cycles != 0) {
    arrival.deadline_cycle = at + request.deadline_cycles;
  } else {
    const sim::Cycle slo = deadline_for(request.task, request.tenant);
    arrival.deadline_cycle = slo == sim::kNever ? sim::kNever : at + slo;
  }
  arrivals_.push_back(arrival);
  ++offered_;
  return arrival.id;
}

bool ServerSession::step_until(sim::Cycle limit) {
  if (finalized_) {
    throw std::logic_error("ServerSession: step after finalize()");
  }
  if (!wall_running_) {
    wall_running_ = true;
    wall_start_ = std::chrono::steady_clock::now();
  }
  // The serving watchdog counts from cycle 0 (the clock only moves
  // here), not from this call: a driver stepping in many short horizons
  // gets no more cycles than one long step would. The simulator throws
  // before the clock passes the watchdog, so the subtraction is safe.
  (void)simulator_.run_events([this] { return idle(); },
                              config_.watchdog_cycles - simulator_.now(),
                              limit, *frontend_, *batch_stage_, *dispatch_);
  return idle();
}

std::vector<Completion> ServerSession::poll_completions() {
  // Within one drained window, completions from different scheduler
  // collect() calls interleave only at equal cycles; (cycle, id) makes
  // the stream a deterministic total order. Windows drain at
  // non-decreasing clock values, so concatenation preserves it globally.
  std::sort(outbox_.begin(), outbox_.end(),
            [](const Completion& a, const Completion& b) {
              if (a.cycle != b.cycle) {
                return a.cycle < b.cycle;
              }
              return a.response.id < b.response.id;
            });
  return std::exchange(outbox_, {});
}

bool ServerSession::idle() const noexcept {
  return arrivals_.empty() && batcher_.pending() == 0 && scheduler_.idle();
}

SessionInfo ServerSession::info() const {
  SessionInfo info;
  info.offered = offered_;
  for (const std::uint64_t admitted : admission_.tenant_admitted()) {
    info.admitted += admitted;
  }
  info.completed = metrics_.completed();
  info.shed = admission_.sheds().total();
  info.batcher_pending = batcher_.pending();
  info.scheduler_pending = scheduler_.pending_stories();
  info.in_flight = scheduler_.in_flight();
  info.cycle = simulator_.now();
  info.draining = draining_;
  info.policy = config_.scheduler.policy;
  return info;
}

void ServerSession::set_tenant(TenantId tenant, const TenantConfig& config) {
  if (tenant >= tenants_.size()) {
    throw std::out_of_range(
        "ServerSession: set_tenant(" + std::to_string(tenant) +
        ") outside the " + std::to_string(tenants_.size()) +
        "-entry registry (the registry size is fixed at construction)");
  }
  // Both checks run before anything moves, so the update is
  // all-or-nothing. Admission and the scheduler read tenants_ live: the
  // new weight lands at the scheduler's next dispatch, and admission
  // re-clamps the tenant's bucket and tier ceiling.
  validate_tenant(config);
  tenants_[tenant] = config;
  admission_.set_tenant(tenant);
}

void ServerSession::set_slo(const SloConfig& slo) { slo_ = slo; }

bool ServerSession::set_policy(SchedulerPolicy policy) {
  if (!scheduler_.set_policy(policy)) {
    return false;
  }
  config_.scheduler.policy = policy;
  return true;
}

ServingReport ServerSession::finalize() {
  if (finalized_) {
    throw std::logic_error("ServerSession: finalize() called twice");
  }
  drain();
  (void)step_until(sim::kNever);
  // Drain leftover speculative work so it is inside the wall measurement
  // and the cache counters below are complete.
  scheduler_.quiesce();
  if (wall_running_) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start_;
    wall_seconds_ = wall.count();
  }
  finalized_ = true;

  RunTotals totals;
  totals.offered = offered_;
  totals.makespan = last_completion_;
  totals.max_batch = config_.batcher.max_batch;
  totals.batching = batcher_.counters();
  totals.sheds = admission_.sheds();
  totals.tenant_sheds = admission_.tenant_sheds();
  totals.tenant_admitted = admission_.tenant_admitted();
  // The live registry, not the construction-time snapshot: a report
  // should echo the contracts the run actually ended under.
  totals.tenants = tenants_;
  totals.devices = scheduler_.device_reports();
  totals.model_uploads = scheduler_.total_model_uploads();
  totals.model_evictions = scheduler_.total_model_evictions();
  totals.stolen_batches = scheduler_.total_stolen_batches();
  totals.device_ops = scheduler_.device_ops();
  totals.link_active_cycles = scheduler_.link_active_cycles();
  totals.host_wall_seconds = wall_seconds_;
  totals.cycle_cache = scheduler_.cache_stats();
  totals.speculation = scheduler_.speculation_stats();
  return metrics_.finalize(std::move(totals));
}

ServingReport run(ServerConfig config, const std::vector<ServedModel>& models,
                  std::size_t total_requests) {
  ServerSession session(std::move(config), models);
  drive_closed_loop(session, session.config().traffic, models.size(),
                    total_requests);
  return session.finalize();
}

}  // namespace mann::serve
