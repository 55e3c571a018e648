// End-to-end checks of the mann::obs wiring through serve::run:
// every lifecycle span closes, the instrument totals agree with the
// serving report, and — the load-bearing invariant — the simulated
// slice of the trace is byte-identical across worker counts, exactly
// like every other simulated number.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"
#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::tiny_program;
using testing::tiny_stories;

struct TracedRun {
  ServingReport report;
  std::vector<obs::TraceEvent> events;
  std::map<std::string, std::uint64_t> counters;
};

TracedRun run_traced(std::size_t workers) {
  const auto stories = tiny_stories(8);
  std::vector<ServedModel> models;
  models.push_back({tiny_program(7), stories});
  models.push_back({tiny_program(8), stories});

  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  ServerConfig config;
  config.traffic.mean_interarrival_cycles = 2'000.0;
  config.traffic.seed = 41;
  config.traffic.slo.default_deadline_cycles = 800'000;
  config.batcher.max_batch = 4;
  config.batcher.max_wait_cycles = 50'000;
  config.scheduler.devices = 2;
  config.scheduler.workers = workers;
  config.metrics = &registry;
  config.trace = &recorder;

  TracedRun run;
  run.report = serve::run(std::move(config), models, 60);
  run.events = recorder.merged();
  for (const obs::MetricSample& s : registry.snapshot()) {
    if (s.kind == obs::MetricSample::Kind::kCounter) {
      run.counters[s.name] = s.value;
    }
  }
  return run;
}

/// Serializes the deterministic (simulated-domain) slice of the trace:
/// everything except seq, which is a host-execution fact.
std::string canonical_sim_trace(const std::vector<obs::TraceEvent>& events) {
  std::string out;
  char line[256];
  for (const obs::TraceEvent& e : events) {
    if (e.domain != obs::Domain::kSim) {
      continue;
    }
    std::snprintf(line, sizeof line,
                  "%s|%s|%d|%u|%llu|%llu|%llu|%lld|%lld|%lld|%lld\n",
                  e.name, e.detail != nullptr ? e.detail : "",
                  static_cast<int>(e.phase), e.track,
                  static_cast<unsigned long long>(e.ts),
                  static_cast<unsigned long long>(e.dur),
                  static_cast<unsigned long long>(e.id),
                  static_cast<long long>(e.task),
                  static_cast<long long>(e.tenant),
                  static_cast<long long>(e.batch),
                  static_cast<long long>(e.deadline));
    out += line;
  }
  return out;
}

TEST(ObsIntegration, LifecycleSpansAreWellFormed) {
  const TracedRun run = run_traced(/*workers=*/0);
  ASSERT_FALSE(run.events.empty());

  // Pair every async begin with its end; ends must not precede begins.
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> open;
  std::size_t request_spans = 0;
  for (const obs::TraceEvent& e : run.events) {
    const std::pair<std::string, std::uint64_t> key{e.name, e.id};
    if (e.phase == obs::Phase::kAsyncBegin) {
      EXPECT_EQ(open.count(key), 0U) << key.first << " begun twice";
      open[key] = e.ts;
      request_spans += key.first == "request" ? 1 : 0;
    } else if (e.phase == obs::Phase::kAsyncEnd) {
      const auto it = open.find(key);
      ASSERT_NE(it, open.end()) << key.first << " ended without begin";
      EXPECT_GE(e.ts, it->second);
      open.erase(it);
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " spans never closed";
  // One "request" lifecycle per offered request, shed or served.
  EXPECT_EQ(request_spans, run.report.offered);
}

TEST(ObsIntegration, CountersMatchReport) {
  const TracedRun run = run_traced(/*workers=*/0);
  const auto at = [&](const char* name) {
    const auto it = run.counters.find(name);
    return it == run.counters.end() ? ~std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(at("serve.admission.admitted") + run.report.rejected,
            run.report.offered);
  EXPECT_EQ(at("serve.batcher.batches_out"),
            run.report.batching.batches_out);
  EXPECT_EQ(at("serve.scheduler.dispatches"),
            run.report.batching.batches_out);
  EXPECT_EQ(at("serve.scheduler.model_uploads"), run.report.model_uploads);
  EXPECT_EQ(at("serve.scheduler.model_evictions"),
            run.report.model_evictions);
}

TEST(ObsIntegration, SimulatedTraceIdenticalAcrossWorkerCounts) {
  const TracedRun sequential = run_traced(/*workers=*/0);
  const TracedRun threaded = run_traced(/*workers=*/2);

  // The serving contract first: workers must not move simulated numbers.
  EXPECT_EQ(sequential.report.completed, threaded.report.completed);
  EXPECT_EQ(sequential.report.makespan_cycles,
            threaded.report.makespan_cycles);
  EXPECT_EQ(sequential.report.accuracy, threaded.report.accuracy);

  // And the trace inherits it: the simulated-domain slice (every
  // lifecycle span and device event, cycle timestamps and all) is
  // byte-identical; only host-domain tracks may differ.
  EXPECT_EQ(canonical_sim_trace(sequential.events),
            canonical_sim_trace(threaded.events));

  // Worker-sensitive instruments still balance internally.
  const auto& counters = threaded.counters;
  EXPECT_EQ(counters.at("serve.worker_pool.jobs_submitted"),
            counters.at("serve.worker_pool.jobs_completed"));
}

}  // namespace
}  // namespace mann::serve
