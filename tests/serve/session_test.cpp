// ServerSession: the incremental serving API must agree with the closed
// loop, serve::run() — the closed loop is the spec. The core assertions
// here: (1) run() equals a submit-everything / step / drain / finalize
// composition on the deterministic report fields; (2) *when* the driver
// steps is irrelevant — any step_until horizon schedule replays the same
// cycles; (3) the completion stream is a complete, (cycle, id)-sorted
// ledger; (4) live reconfiguration lands mid-run without dropping queued
// or in-flight requests.
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "serve/outcome.hpp"
#include "serve/request.hpp"
#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::tiny_program;
using testing::tiny_stories;

std::vector<ServedModel> two_models(
    const std::vector<data::EncodedStory>& stories) {
  std::vector<ServedModel> models;
  models.push_back({tiny_program(7), stories});
  models.push_back({tiny_program(8), stories});
  return models;
}

/// A fixed arrival schedule dense enough to exercise batching: bursts
/// around a few cycles plus a sparse tail.
std::vector<TraceEntry> fixed_trace() {
  std::vector<TraceEntry> trace;
  const sim::Cycle bases[] = {1'000, 1'000, 1'200, 40'000, 40'000,
                              41'000, 90'000, 400'000, 400'100, 900'000};
  for (std::size_t i = 0; i < std::size(bases); ++i) {
    TraceEntry entry;
    entry.arrival_cycle = bases[i];
    entry.task = i % 2;
    entry.tenant = static_cast<TenantId>(i % 3);
    trace.push_back(entry);
  }
  return trace;
}

ServerConfig session_config() {
  ServerConfig config;
  config.batcher.max_batch = 4;
  config.batcher.max_wait_cycles = 30'000;
  config.scheduler.devices = 2;
  config.traffic.slo.default_deadline_cycles = 600'000;
  config.traffic.tenants.resize(3);
  return config;
}

/// Equality on every deterministic report field (host-execution fields —
/// wall time, worker count, cycle-cache stats — excluded by design).
void expect_reports_equal(const ServingReport& a, const ServingReport& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.early_exit_rate, b.early_exit_rate);
  EXPECT_DOUBLE_EQ(a.latency.mean_cycles, b.latency.mean_cycles);
  EXPECT_DOUBLE_EQ(a.latency.max_cycles, b.latency.max_cycles);
  EXPECT_DOUBLE_EQ(a.queue_wait.mean_cycles, b.queue_wait.mean_cycles);
  EXPECT_EQ(a.deadline_total, b.deadline_total);
  EXPECT_EQ(a.deadline_missed, b.deadline_missed);
  for (std::size_t r = 0; r < kShedReasonCount; ++r) {
    const auto reason = static_cast<ShedReason>(r);
    EXPECT_EQ(a.shed.count(reason), b.shed.count(reason));
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i], b.tenants[i]);
  }
  EXPECT_DOUBLE_EQ(a.fairness_index, b.fairness_index);
  EXPECT_DOUBLE_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_DOUBLE_EQ(a.mean_device_utilization, b.mean_device_utilization);
  EXPECT_EQ(a.model_uploads, b.model_uploads);
  EXPECT_EQ(a.stolen_batches, b.stolen_batches);
  EXPECT_DOUBLE_EQ(a.energy.total_joules, b.energy.total_joules);
}

/// The closed-loop baseline: the same schedule served by serve::run().
ServingReport closed_loop_report(const std::vector<TraceEntry>& trace,
                                 const std::vector<ServedModel>& models) {
  ServerConfig config = session_config();
  config.traffic.process = ArrivalProcess::kTrace;
  config.traffic.trace = trace;
  return run(config, models, trace.size());
}

TEST(ServerSession, RunEqualsSubmitStepDrainComposition) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  const auto trace = fixed_trace();
  const ServingReport closed = closed_loop_report(trace, models);

  // Open loop: the same schedule injected via submit(), clock held to
  // the last vouched-for arrival between submissions (the daemon's
  // lockstep discipline), then drained.
  ServerSession session(session_config(), models);
  for (const TraceEntry& entry : trace) {
    SubmitRequest request;
    request.task = entry.task;
    request.tenant = entry.tenant;
    request.at_cycle = entry.arrival_cycle;
    const RequestId id = session.submit(request);
    (void)id;
    (void)session.step_until(session.last_submitted_arrival());
  }
  session.drain();
  const ServingReport open = session.finalize();
  EXPECT_TRUE(session.finalized());

  expect_reports_equal(closed, open);
}

TEST(ServerSession, SteppingGranularityDoesNotChangeTheTimeline) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  const auto trace = fixed_trace();

  // One shot: submit everything, finalize.
  ServerSession one_shot(session_config(), models);
  for (const TraceEntry& entry : trace) {
    SubmitRequest request{entry.task, entry.tenant, entry.arrival_cycle, 0};
    (void)one_shot.submit(request);
  }
  one_shot.drain();
  const ServingReport a = one_shot.finalize();

  // Fussy driver: submit everything, then crawl the clock forward in
  // awkward horizons (including no-op repeats) before finalizing.
  ServerSession fussy(session_config(), models);
  for (const TraceEntry& entry : trace) {
    SubmitRequest request{entry.task, entry.tenant, entry.arrival_cycle, 0};
    (void)fussy.submit(request);
  }
  for (const sim::Cycle limit :
       {sim::Cycle{1}, sim::Cycle{1'001}, sim::Cycle{1'001},
        sim::Cycle{39'999}, sim::Cycle{41'000}, sim::Cycle{500'000}}) {
    (void)fussy.step_until(limit);
    EXPECT_LE(fussy.now(), limit);
  }
  (void)fussy.step_until(fussy.now() + 123);  // relative horizons too
  fussy.drain();
  const ServingReport b = fussy.finalize();

  expect_reports_equal(a, b);
}

TEST(ServerSession, CompletionStreamIsACompleteSortedLedger) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  const auto trace = fixed_trace();

  ServerSession session(session_config(), models);
  std::vector<Completion> stream;
  for (const TraceEntry& entry : trace) {
    SubmitRequest request{entry.task, entry.tenant, entry.arrival_cycle, 0};
    (void)session.submit(request);
    (void)session.step_until(session.last_submitted_arrival());
    // Polling mid-run must compose with polling at the end.
    for (Completion& c : session.poll_completions()) {
      stream.push_back(std::move(c));
    }
  }
  session.drain();
  (void)session.step_until(sim::kNever);
  for (Completion& c : session.poll_completions()) {
    stream.push_back(std::move(c));
  }

  // Exactly one resolution per offered request, ids 0..N-1 each once.
  ASSERT_EQ(stream.size(), trace.size());
  std::vector<bool> seen(trace.size(), false);
  for (const Completion& c : stream) {
    ASSERT_LT(c.response.id, trace.size());
    EXPECT_FALSE(seen[c.response.id]);
    seen[c.response.id] = true;
    if (outcome_is_completion(c.outcome)) {
      EXPECT_EQ(c.cycle, c.response.complete_cycle);
    }
  }
  // Globally (cycle, id)-sorted across poll windows.
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const bool ordered =
        stream[i - 1].cycle < stream[i].cycle ||
        (stream[i - 1].cycle == stream[i].cycle &&
         stream[i - 1].response.id < stream[i].response.id);
    EXPECT_TRUE(ordered) << "stream out of order at index " << i;
  }
  // The report agrees with the stream's own accounting.
  const ServingReport report = session.finalize();
  EXPECT_EQ(report.completed + report.rejected, stream.size());
}

TEST(ServerSession, LiveReconfigurationKeepsInFlightRequests) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  ServerConfig config = session_config();
  config.scheduler.policy = SchedulerPolicy::kWfq;
  ServerSession session(config, models);

  // Get work queued and in flight, then rewrite the contracts under it.
  for (int i = 0; i < 6; ++i) {
    SubmitRequest request;
    request.task = static_cast<std::size_t>(i % 2);
    request.tenant = static_cast<TenantId>(i % 3);
    request.at_cycle = 1'000 + static_cast<sim::Cycle>(i) * 50;
    (void)session.submit(request);
  }
  (void)session.step_until(1'200);

  TenantConfig vip;
  vip.tier = 1;
  vip.weight = 5.0;
  vip.slo_deadline_cycles = 2'000'000;
  session.set_tenant(1, vip);
  SloConfig slo;
  slo.default_deadline_cycles = 2'000'000;
  session.set_slo(slo);
  EXPECT_TRUE(session.set_policy(SchedulerPolicy::kEdf));
  EXPECT_TRUE(session.set_policy(SchedulerPolicy::kWfq));

  // More traffic under the new contracts, then drain: nothing dropped.
  for (int i = 0; i < 4; ++i) {
    SubmitRequest request;
    request.task = static_cast<std::size_t>(i % 2);
    request.tenant = 1;
    request.at_cycle = 10'000 + static_cast<sim::Cycle>(i) * 50;
    (void)session.submit(request);
  }
  session.drain();
  const ServingReport report = session.finalize();
  EXPECT_EQ(report.offered, 10U);
  EXPECT_EQ(report.completed, 10U);
  EXPECT_EQ(report.rejected, 0U);
  // The report's tenant registry echoes the live update.
  ASSERT_EQ(report.tenants.size(), 3U);
  EXPECT_EQ(report.tenants[1].tier, 1U);
  EXPECT_DOUBLE_EQ(report.tenants[1].weight, 5.0);
}

TEST(ServerSession, PolicySwitchRespectsConstructionLayout) {
  const auto stories = tiny_stories(4);
  const auto models = two_models(stories);
  // Built under EDF (no tenant lanes): WFQ cannot be reached live.
  ServerSession session(session_config(), models);
  EXPECT_TRUE(session.set_policy(SchedulerPolicy::kFifo));
  EXPECT_FALSE(session.set_policy(SchedulerPolicy::kWfq));
  EXPECT_TRUE(session.set_policy(SchedulerPolicy::kEdf));
}

TEST(ServerSession, ValidatesSubmissionsAndLifecycle) {
  const auto stories = tiny_stories(4);
  const auto models = two_models(stories);
  ServerSession session(session_config(), models);

  SubmitRequest bad_task;
  bad_task.task = 99;
  EXPECT_THROW((void)session.submit(bad_task), std::out_of_range);
  SubmitRequest bad_tenant;
  bad_tenant.tenant = 7;
  EXPECT_THROW((void)session.submit(bad_tenant), std::out_of_range);
  EXPECT_THROW(session.set_tenant(9, TenantConfig{}), std::out_of_range);
  TenantConfig weightless;
  weightless.weight = 0.0;
  EXPECT_THROW(session.set_tenant(1, weightless), std::invalid_argument);
  // The same contract is refused at construction too, under every policy
  // (only kWfq reads weights, but the registry is one contract).
  ServerConfig edf_weightless = session_config();
  ASSERT_EQ(edf_weightless.scheduler.policy, SchedulerPolicy::kEdf);
  edf_weightless.traffic.tenants[1] = weightless;
  EXPECT_THROW(ServerSession(edf_weightless, models), std::invalid_argument);
  // Non-finite numbers are refused like out-of-range ones: NaN passes
  // every `<=` test and infinity most of them.
  ServerConfig edf_nan_weight = session_config();
  edf_nan_weight.traffic.tenants[1].weight =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ServerSession(edf_nan_weight, models), std::invalid_argument);
  TenantConfig endless_quota;
  endless_quota.quota_interarrival_cycles =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(session.set_tenant(1, endless_quota), std::invalid_argument);

  (void)session.submit(SubmitRequest{});
  const ServingReport report = session.finalize();
  EXPECT_EQ(report.completed, 1U);
  EXPECT_THROW((void)session.submit(SubmitRequest{}), std::logic_error);
  EXPECT_THROW((void)session.finalize(), std::logic_error);
}

TEST(ServerSession, WatchdogCountsFromTheFirstStepAcrossHorizons) {
  const auto stories = tiny_stories(4);
  const auto models = two_models(stories);
  ServerConfig config = session_config();
  config.watchdog_cycles = 50'000;
  ServerSession session(config, models);

  // Every lockstep horizon sits inside the watchdog, but the last
  // arrival lands 10 cycles before it expires: too late to be served.
  // A budget restarted on each step_until would let finalize() run on.
  for (const sim::Cycle at : {sim::Cycle{0}, sim::Cycle{20'000},
                              sim::Cycle{40'000}, sim::Cycle{49'990}}) {
    (void)session.submit(SubmitRequest{0, 0, at, 0});
    (void)session.step_until(session.last_submitted_arrival());
  }
  EXPECT_THROW((void)session.finalize(), std::runtime_error);
}

// ---- SLO deadlines: submit() with deadline 0 stamps the live SLO ----

/// Submits one request per (task, tenant, arrival) row with deadline 0,
/// serves them all and returns the stamped deadlines in submit order.
std::vector<sim::Cycle> stamped_deadlines(
    const ServerConfig& config, const std::vector<ServedModel>& models,
    const std::vector<TraceEntry>& arrivals) {
  ServerSession session(config, models);
  for (const TraceEntry& arrival : arrivals) {
    (void)session.submit(
        {arrival.task, arrival.tenant, arrival.arrival_cycle, 0});
  }
  session.drain();
  (void)session.step_until(sim::kNever);
  std::vector<Completion> done = session.poll_completions();
  std::sort(done.begin(), done.end(),
            [](const Completion& a, const Completion& b) {
              return a.response.id < b.response.id;
            });
  std::vector<sim::Cycle> deadlines;
  for (const Completion& completion : done) {
    deadlines.push_back(completion.response.deadline_cycle);
  }
  return deadlines;
}

TEST(SloDeadlines, StampedFromPerTaskConfig) {
  const auto stories = tiny_stories(4);
  std::vector<ServedModel> models = two_models(stories);
  models.push_back({tiny_program(9), stories});
  ServerConfig config;
  config.traffic.slo.default_deadline_cycles = 5'000;
  config.traffic.slo.per_task = {0, 1'000};  // task 0 default, task 1 tight
  const std::vector<sim::Cycle> deadlines = stamped_deadlines(
      config, models, {{100, 0}, {200, 1}, {300, 2}});
  // Task 2 lies beyond per_task: the default applies.
  EXPECT_EQ(deadlines, (std::vector<sim::Cycle>{5'100, 1'200, 5'300}));
}

TEST(SloDeadlines, NoSloMeansNoDeadline) {
  const auto stories = tiny_stories(2);
  const std::vector<sim::Cycle> deadlines =
      stamped_deadlines(ServerConfig{}, two_models(stories),
                        {{1'000, 0}, {2'000, 1}, {3'000, 0}});
  ASSERT_EQ(deadlines.size(), 3U);
  for (const sim::Cycle deadline : deadlines) {
    EXPECT_EQ(deadline, sim::kNever);
    EXPECT_FALSE(
        InferenceResponse{.deadline_cycle = deadline}.has_deadline());
  }
}

TEST(TenantTraffic, SloOverridePerTenant) {
  const auto stories = tiny_stories(4);
  ServerConfig config;
  config.traffic.slo.default_deadline_cycles = 5'000;
  config.traffic.tenants.resize(3);
  config.traffic.tenants[1].slo_deadline_cycles = 1'000;  // tighter contract
  config.traffic.tenants[2].slo_deadline_cycles = sim::kNever;  // no SLO
  const std::vector<sim::Cycle> deadlines = stamped_deadlines(
      config, two_models(stories), {{100, 0, 0}, {200, 0, 1}, {300, 0, 2}});
  // Task SLO, tenant override, then no deadline at all.
  EXPECT_EQ(deadlines,
            (std::vector<sim::Cycle>{5'100, 1'200, sim::kNever}));
}

}  // namespace
}  // namespace mann::serve
