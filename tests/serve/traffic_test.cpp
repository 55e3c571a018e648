// Diurnal and trace-driven arrival processes, tenant draws, and the trace
// CSV interchange format. (The session stamps SLO deadlines; its tests
// live in session_test.cpp.)
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"
#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::tiny_program;
using testing::tiny_stories;

std::vector<TraceEntry> emit_all(const TrafficConfig& config,
                                 std::size_t num_tasks, std::size_t total) {
  TrafficGenerator gen(config, num_tasks, total);
  std::vector<TraceEntry> out;
  while (auto r = gen.poll(sim::kNever - 1)) {
    out.push_back(*r);
  }
  return out;
}

TEST(DiurnalTraffic, KeepsLongRunRate) {
  TrafficConfig config;
  config.process = ArrivalProcess::kDiurnal;
  config.mean_interarrival_cycles = 1'000.0;
  config.diurnal_amplitude = 0.8;
  config.diurnal_period_cycles = 500'000.0;
  const auto requests = emit_all(config, 1, 4'000);
  ASSERT_EQ(requests.size(), 4'000U);
  const double mean_gap =
      static_cast<double>(requests.back().arrival_cycle) / 4'000.0;
  // Long-run rate within 25% of the flat-Poisson configuration (the
  // sinusoid averages out over the eight periods this spans).
  EXPECT_GT(mean_gap, 750.0);
  EXPECT_LT(mean_gap, 1'250.0);
}

TEST(DiurnalTraffic, PeakIsDenserThanTrough) {
  TrafficConfig config;
  config.process = ArrivalProcess::kDiurnal;
  config.mean_interarrival_cycles = 1'000.0;
  config.diurnal_amplitude = 0.9;
  config.diurnal_period_cycles = 1'000'000.0;
  const auto requests = emit_all(config, 1, 3'000);

  // sin peaks at P/4 and troughs at 3P/4; count arrivals in equal-width
  // windows around both across every period covered.
  const auto period = static_cast<sim::Cycle>(config.diurnal_period_cycles);
  std::size_t peak = 0;
  std::size_t trough = 0;
  for (const TraceEntry& r : requests) {
    const sim::Cycle phase = r.arrival_cycle % period;
    if (phase < period / 2) {
      ++peak;
    } else {
      ++trough;
    }
  }
  // With A=0.9 the first half-period carries the sinusoid's positive
  // lobe; demand a decisive (not knife-edge) imbalance.
  EXPECT_GT(peak, trough * 2);
}

TEST(DiurnalTraffic, ValidatesModulationParameters) {
  TrafficConfig config;
  config.process = ArrivalProcess::kDiurnal;
  config.diurnal_amplitude = 1.0;  // rate would touch zero
  EXPECT_THROW(TrafficGenerator(config, 1, 4),
               std::invalid_argument);
  config.diurnal_amplitude = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TrafficGenerator(config, 1, 4),
               std::invalid_argument);
  config.diurnal_amplitude = 0.5;
  config.diurnal_period_cycles = 0.0;
  EXPECT_THROW(TrafficGenerator(config, 1, 4),
               std::invalid_argument);
}

TEST(TraceTraffic, ReplaysScheduleExactly) {
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = {{100, 1}, {250, 0}, {250, 1}, {900, 0}};
  const auto requests =
      emit_all(config, 2, 4);
  ASSERT_EQ(requests.size(), 4U);
  EXPECT_EQ(requests[0].arrival_cycle, 100U);
  EXPECT_EQ(requests[0].task, 1U);
  EXPECT_EQ(requests[1].arrival_cycle, 250U);
  EXPECT_EQ(requests[1].task, 0U);
  EXPECT_EQ(requests[2].arrival_cycle, 250U);
  EXPECT_EQ(requests[2].task, 1U);
  EXPECT_EQ(requests[3].arrival_cycle, 900U);
  EXPECT_EQ(requests[3].task, 0U);
}

TEST(TraceTraffic, LoopsWithShiftWhenRequestsExceedTrace) {
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = {{100, 0}, {400, 0}};
  const auto requests = emit_all(config, 1, 5);
  ASSERT_EQ(requests.size(), 5U);
  // Span = last + max(1, last/n) = 400 + 200 = 600 per lap.
  EXPECT_EQ(requests[0].arrival_cycle, 100U);
  EXPECT_EQ(requests[1].arrival_cycle, 400U);
  EXPECT_EQ(requests[2].arrival_cycle, 700U);
  EXPECT_EQ(requests[3].arrival_cycle, 1'000U);
  EXPECT_EQ(requests[4].arrival_cycle, 1'300U);
}

TEST(TraceTraffic, RejectsMalformedTraces) {
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = {};
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
  config.trace = {{500, 0}, {100, 0}};  // time goes backwards
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
  config.trace = {{100, 9}};  // unknown task
  EXPECT_THROW(TrafficGenerator(config, 1, 1),
               std::invalid_argument);
}

TEST(TenantTraffic, DefaultsToSingleTenant) {
  TrafficConfig config;
  config.mean_interarrival_cycles = 1'000.0;
  const auto requests = emit_all(config, 1, 16);
  for (const TraceEntry& r : requests) {
    EXPECT_EQ(r.tenant, 0U);
  }
}

TEST(TenantTraffic, DrawsByTrafficShareDeterministically) {
  TrafficConfig config;
  config.mean_interarrival_cycles = 500.0;
  config.tenants.resize(3);
  config.tenants[0].traffic_share = 1.0;
  config.tenants[1].traffic_share = 1.0;
  config.tenants[2].traffic_share = 6.0;

  const auto first = emit_all(config, 1, 2'000);
  std::size_t counts[3] = {0, 0, 0};
  for (const TraceEntry& r : first) {
    ASSERT_LT(r.tenant, 3U);
    ++counts[r.tenant];
  }
  // 6/8 of the traffic should be tenant 2's (loose bounds: the draw is
  // random but seeded).
  EXPECT_GT(counts[2], counts[0] * 3);
  EXPECT_GT(counts[2], counts[1] * 3);
  EXPECT_GT(counts[0], 100U);
  EXPECT_GT(counts[1], 100U);

  // Same seed, same sequence — tenant by tenant.
  const auto second = emit_all(config, 1, 2'000);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].tenant, first[i].tenant);
  }
}

TEST(TenantTraffic, LabelsNeverPerturbArrivalTiming) {
  // The tenant draw uses its own RNG stream: adding a registry must not
  // move a single arrival cycle or task pick.
  TrafficConfig plain;
  plain.process = ArrivalProcess::kBursty;
  plain.mean_interarrival_cycles = 1'000.0;
  const auto without = emit_all(plain, 2, 500);

  TrafficConfig tenanted = plain;
  tenanted.tenants.resize(3);
  tenanted.tenants[2].traffic_share = 5.0;
  const auto with =
      emit_all(tenanted, 2, 500);

  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].arrival_cycle, without[i].arrival_cycle);
    EXPECT_EQ(with[i].task, without[i].task);
  }
}

TEST(TenantTraffic, ValidatesSharesAndTraceTenants) {
  TrafficConfig config;
  config.tenants.resize(2);
  config.tenants[0].traffic_share = -1.0;
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
  config.tenants[0].traffic_share = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
  config.tenants[0].traffic_share = 0.0;
  config.tenants[1].traffic_share = 0.0;
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);

  // A trace naming a tenant outside the registry is as malformed as one
  // naming an unknown task.
  TrafficConfig trace_config;
  trace_config.process = ArrivalProcess::kTrace;
  trace_config.trace = {{100, 0, 1}};
  EXPECT_THROW(TrafficGenerator(trace_config, 1, 1),
               std::invalid_argument);
  trace_config.tenants.resize(2);
  EXPECT_NO_THROW(TrafficGenerator(trace_config, 1, 1));
}

TEST(TraceTraffic, ReplaysTenantsFromRecording) {
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = {{100, 0, 2}, {250, 0, 0}, {400, 0, 1}};
  config.tenants.resize(3);
  const auto requests = emit_all(config, 1, 3);
  ASSERT_EQ(requests.size(), 3U);
  EXPECT_EQ(requests[0].tenant, 2U);
  EXPECT_EQ(requests[1].tenant, 0U);
  EXPECT_EQ(requests[2].tenant, 1U);
}

TEST(TraceCsv, RoundTripsThroughDisk) {
  const std::vector<TraceEntry> entries = {{0, 3}, {120, 0}, {120, 1},
                                           {99'000, 2}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_rt.csv").string();
  save_trace_csv(path, entries);
  const std::vector<TraceEntry> loaded = load_trace_csv(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded, entries);
}

TEST(TraceCsv, RoundTripsTenantsThroughDisk) {
  const std::vector<TraceEntry> entries = {
      {0, 3, 1}, {120, 0, 0}, {120, 1, 2}, {99'000, 2, 1}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_rt_v2.csv")
          .string();
  save_trace_csv(path, entries);
  const std::vector<TraceEntry> loaded = load_trace_csv(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded, entries);
}

TEST(TraceCsv, AcceptsCommentsBlanksAndHeader) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_hdr.csv")
          .string();
  {
    std::ofstream out(path);
    out << "# recorded 2026-07-29\n"
        << "arrival_cycle,task_id\n"
        << "\n"
        << "10,0\n"
        << "  20,1  \n";
  }
  const std::vector<TraceEntry> loaded = load_trace_csv(path);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.size(), 2U);
  EXPECT_EQ(loaded[0], (TraceEntry{10, 0}));
  EXPECT_EQ(loaded[1], (TraceEntry{20, 1}));
}

TEST(TraceCsv, RejectsGarbageAndBackwardsTime) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_bad.csv")
          .string();
  {
    std::ofstream out(path);
    out << "10,zero\n";
  }
  EXPECT_THROW((void)load_trace_csv(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "100,0\n50,0\n";
  }
  EXPECT_THROW((void)load_trace_csv(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW((void)load_trace_csv(path), std::runtime_error);  // missing
}

// Every way a row can be malformed must be a loud error with the line
// number, never a silently-skipped or misparsed arrival.
TEST(TraceCsv, RejectsMalformedRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_malformed.csv")
          .string();
  const auto expect_throw_for = [&](const std::string& row) {
    SCOPED_TRACE("row: '" + row + "'");
    {
      std::ofstream out(path);
      out << row << "\n";
    }
    EXPECT_THROW((void)load_trace_csv(path), std::runtime_error);
  };

  expect_throw_for("123");          // truncated: no task column
  expect_throw_for("123,");         // truncated: empty task column
  expect_throw_for(",5");           // truncated: empty cycle column
  expect_throw_for("abc,0");        // non-numeric cycle
  expect_throw_for("1e3,0");        // non-numeric cycle (no floats)
  expect_throw_for("-10,0");        // negative cycle
  expect_throw_for("10,0,");        // truncated: empty tenant column
  expect_throw_for("10,0,bad");     // non-numeric tenant
  expect_throw_for("10,0,1,9");     // too many columns
  expect_throw_for("99999999999999999999,0");  // u64 overflow
  std::filesystem::remove(path);
}

// A task id a trace names but the replayer was never given is a
// configuration error at generator construction, not a silent wrap.
TEST(TraceTraffic, RejectsUnknownTaskIdFromLoadedTrace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_unknown.csv")
          .string();
  {
    std::ofstream out(path);
    out << "arrival_cycle,task_id,tenant_id\n10,0,0\n20,7,0\n";
  }
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = load_trace_csv(path);
  std::filesystem::remove(path);
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
}

// The tentpole determinism contract: trace-driven replay produces the
// identical simulated timeline for any worker count (speculation must
// never leak into dispatch decisions), under the deadline-aware policy.
TEST(TraceTraffic, ReplayDeterministicAcrossWorkerCounts) {
  const auto stories = tiny_stories(10);
  std::vector<TraceEntry> trace;
  for (sim::Cycle i = 0; i < 60; ++i) {
    trace.push_back({i * 700, i % 2});
  }

  const auto run_with_workers = [&](std::size_t workers) {
    ServerConfig config;
    config.traffic.process = ArrivalProcess::kTrace;
    config.traffic.trace = trace;
    config.traffic.slo.default_deadline_cycles = 400'000;
    config.batcher.max_batch = 4;
    config.batcher.max_wait_cycles = 20'000;
    config.scheduler.devices = 2;
    config.scheduler.dedicated_devices = 2;
    config.scheduler.policy = SchedulerPolicy::kEdf;
    config.scheduler.workers = workers;
    std::vector<ServedModel> models;
    models.push_back({tiny_program(7), stories});
    models.push_back({tiny_program(8), stories});
    return serve::run(config, models, 60);
  };

  const ServingReport sequential = run_with_workers(0);
  ASSERT_EQ(sequential.completed, 60U);
  for (const std::size_t workers : {1U, 3U}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const ServingReport parallel = run_with_workers(workers);
    EXPECT_EQ(parallel.makespan_cycles, sequential.makespan_cycles);
    EXPECT_DOUBLE_EQ(parallel.accuracy, sequential.accuracy);
    EXPECT_DOUBLE_EQ(parallel.latency.p99_cycles,
                     sequential.latency.p99_cycles);
    EXPECT_EQ(parallel.deadline_missed, sequential.deadline_missed);
    EXPECT_DOUBLE_EQ(parallel.deadline_hit_rate,
                     sequential.deadline_hit_rate);
    EXPECT_EQ(parallel.model_uploads, sequential.model_uploads);
    EXPECT_EQ(parallel.model_evictions, sequential.model_evictions);
    EXPECT_EQ(parallel.stolen_batches, sequential.stolen_batches);
    EXPECT_DOUBLE_EQ(parallel.energy.per_inference_joules,
                     sequential.energy.per_inference_joules);
  }
}

// scale_trace: volume amplification that preserves the trace's shape.
// Replicas jitter inside the local inter-arrival gap, so bursts stay
// bursts and the trough stays a trough at any factor.
TEST(ScaleTrace, KeepsOriginalsAndAddsJitteredReplicas) {
  const std::vector<TraceEntry> base = {
      {1'000, 0, 1}, {1'000, 1, 2}, {5'000, 0, 0}, {90'000, 1, 1}};
  const std::vector<TraceEntry> scaled = scale_trace(base, 3, 42);
  ASSERT_EQ(scaled.size(), base.size() * 3);

  // Arrival-sorted (valid for replay / save_trace_csv).
  for (std::size_t i = 1; i < scaled.size(); ++i) {
    EXPECT_LE(scaled[i - 1].arrival_cycle, scaled[i].arrival_cycle);
  }
  // Every original row survives verbatim, and each original contributes
  // exactly factor rows with its task/tenant pair.
  for (const TraceEntry& original : base) {
    std::size_t verbatim = 0;
    std::size_t family = 0;
    for (const TraceEntry& entry : scaled) {
      verbatim += entry == original ? 1 : 0;
      family += entry.task == original.task && entry.tenant == original.tenant
                    ? 1
                    : 0;
    }
    EXPECT_GE(verbatim, 1u);
    // Both tasks appear twice in `base`, so each (task, tenant) family
    // is exactly one original's replicas.
    EXPECT_EQ(family, 3u);
  }
  // Jitter stays within the local gap: nothing lands past the last
  // original arrival plus its mean-gap tail allowance.
  const sim::Cycle span = base.back().arrival_cycle - base.front().arrival_cycle;
  const sim::Cycle mean_gap = span / (base.size() - 1);
  for (const TraceEntry& entry : scaled) {
    EXPECT_LT(entry.arrival_cycle,
              base.back().arrival_cycle + mean_gap);
  }
}

TEST(ScaleTrace, IsDeterministicPerSeedAndIdentityAtFactorOne) {
  const std::vector<TraceEntry> base = {
      {0, 0, 0}, {200, 1, 1}, {250, 0, 2}, {8'000, 1, 0}};
  EXPECT_EQ(scale_trace(base, 1, 7), base);
  EXPECT_EQ(scale_trace(base, 0, 7), base);  // 0 treated as identity
  EXPECT_EQ(scale_trace(base, 10, 7), scale_trace(base, 10, 7));
  // A different seed moves the replicas (the originals stay).
  EXPECT_NE(scale_trace(base, 10, 7), scale_trace(base, 10, 8));
  EXPECT_TRUE(scale_trace({}, 5, 7).empty());
}

TEST(ScaleTrace, ScaledTraceReplaysDeterministically) {
  const std::vector<TraceEntry> base = {
      {1'000, 0, 0}, {1'200, 1, 1}, {40'000, 0, 2}, {41'000, 1, 0}};
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = scale_trace(base, 5, 11);
  config.tenants.resize(3);
  const auto first = emit_all(config, 2,
                              config.trace.size());
  const auto second = emit_all(config, 2,
                               config.trace.size());
  ASSERT_EQ(first.size(), base.size() * 5);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].arrival_cycle, second[i].arrival_cycle);
    EXPECT_EQ(first[i].task, second[i].task);
    EXPECT_EQ(first[i].tenant, second[i].tenant);
  }
}

}  // namespace
}  // namespace mann::serve
