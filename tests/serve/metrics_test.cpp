#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "serve/request.hpp"

namespace mann::serve {
namespace {

InferenceResponse response_with_latency(sim::Cycle enqueue, sim::Cycle done,
                                        bool correct = true) {
  InferenceResponse r;
  r.id = 1;
  r.batch_size = 4;
  r.prediction = 3;
  r.answer = correct ? 3 : 5;
  r.enqueue_cycle = enqueue;
  r.dispatch_cycle = enqueue;
  r.complete_cycle = done;
  return r;
}

TEST(ServingMetrics, RejectsNonPositiveClock) {
  EXPECT_THROW(ServingMetrics(0.0), std::invalid_argument);
  EXPECT_THROW(ServingMetrics(-1.0), std::invalid_argument);
}

TEST(ServingMetrics, EmptyWindowFinalizesToZeros) {
  const ServingMetrics metrics(100.0e6);
  const ServingReport report = metrics.finalize({});

  EXPECT_EQ(report.completed, 0U);
  EXPECT_DOUBLE_EQ(report.throughput_stories_per_second, 0.0);
  EXPECT_DOUBLE_EQ(report.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(report.mean_batch_size, 0.0);
  // Percentiles over an empty window are zero, not NaN or a crash.
  EXPECT_DOUBLE_EQ(report.latency.p50_cycles, 0.0);
  EXPECT_DOUBLE_EQ(report.latency.p99_cycles, 0.0);
  EXPECT_DOUBLE_EQ(report.latency.max_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.queue_wait.mean_cycles, 0.0);
}

TEST(ServingMetrics, SingleSampleCollapsesEveryPercentile) {
  // The second latency is past 2^24 cycles, where a float sample would
  // round it to 1,000,000,000.
  for (const sim::Cycle latency :
       {sim::Cycle{25'000}, sim::Cycle{1'000'000'007}}) {
    SCOPED_TRACE("latency " + std::to_string(latency));
    ServingMetrics metrics(100.0e6);
    metrics.record(response_with_latency(1'000, 1'000 + latency));

    RunTotals totals;
    totals.offered = 1;
    totals.makespan = 1'000 + latency;
    totals.max_batch = 8;
    const ServingReport report = metrics.finalize(std::move(totals));

    ASSERT_EQ(report.completed, 1U);
    // One observation: every quantile, the mean and the max agree on it.
    const auto expected = static_cast<double>(latency);
    EXPECT_EQ(report.latency.p50_cycles, expected);
    EXPECT_EQ(report.latency.p95_cycles, expected);
    EXPECT_EQ(report.latency.p99_cycles, expected);
    EXPECT_EQ(report.latency.max_cycles, expected);
    EXPECT_EQ(report.latency.mean_cycles, expected);
    EXPECT_DOUBLE_EQ(report.latency.p50_seconds, expected / 100.0e6);
    EXPECT_DOUBLE_EQ(report.accuracy, 1.0);
    EXPECT_DOUBLE_EQ(report.mean_batch_size, 4.0);
    EXPECT_DOUBLE_EQ(report.batching_efficiency, 0.5);
  }
}

TEST(ServingMetrics, PercentilesOrderedOnSkewedSamples) {
  ServingMetrics metrics(100.0e6);
  for (sim::Cycle latency = 1; latency <= 100; ++latency) {
    metrics.record(response_with_latency(0, latency));
  }
  RunTotals totals;
  totals.offered = 100;
  totals.makespan = 100;
  const ServingReport report = metrics.finalize(std::move(totals));
  EXPECT_DOUBLE_EQ(report.latency.p50_cycles, 50.0);
  EXPECT_DOUBLE_EQ(report.latency.p95_cycles, 95.0);
  EXPECT_DOUBLE_EQ(report.latency.p99_cycles, 99.0);
  EXPECT_DOUBLE_EQ(report.latency.max_cycles, 100.0);
}

TEST(ServingMetrics, CarriesHostExecutionView) {
  ServingMetrics metrics(100.0e6);
  metrics.record(response_with_latency(0, 500));
  metrics.record(response_with_latency(0, 700, /*correct=*/false));

  RunTotals totals;
  totals.offered = 2;
  totals.makespan = 700;
  totals.max_batch = 8;
  totals.host_wall_seconds = 0.5;
  totals.cycle_cache.hits = 3;
  totals.cycle_cache.misses = 1;
  const ServingReport report = metrics.finalize(std::move(totals));

  EXPECT_DOUBLE_EQ(report.host_wall_seconds, 0.5);
  EXPECT_DOUBLE_EQ(report.cycle_cache.hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(report.accuracy, 0.5);
}

TEST(ServingMetrics, DeadlineHitRateAndPerTaskViolations) {
  ServingMetrics metrics(100.0e6);
  const auto respond = [&](std::size_t task, sim::Cycle done,
                           sim::Cycle deadline) {
    InferenceResponse r = response_with_latency(0, done);
    r.task = task;
    r.deadline_cycle = deadline;
    metrics.record(r);
  };
  respond(0, 1'000, 2'000);            // met
  respond(0, 3'000, 2'000);            // missed
  respond(1, 5'000, 5'000);            // met exactly on the deadline
  respond(2, 9'000, sim::kNever);      // no SLO: never counts as missed

  RunTotals totals;
  totals.offered = 4;
  totals.makespan = 9'000;
  const ServingReport report = metrics.finalize(std::move(totals));

  EXPECT_EQ(report.deadline_total, 3U);
  EXPECT_EQ(report.deadline_missed, 1U);
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate, 2.0 / 3.0);
  ASSERT_EQ(report.task_slo.size(), 3U);
  EXPECT_EQ(report.task_slo[0].task, 0U);
  EXPECT_EQ(report.task_slo[0].with_deadline, 2U);
  EXPECT_EQ(report.task_slo[0].violations, 1U);
  EXPECT_DOUBLE_EQ(report.task_slo[0].hit_rate(), 0.5);
  EXPECT_EQ(report.task_slo[1].violations, 0U);
  EXPECT_EQ(report.task_slo[2].with_deadline, 0U);
  EXPECT_DOUBLE_EQ(report.task_slo[2].hit_rate(), 1.0);
}

TEST(ServingMetrics, NoDeadlinesMeansPerfectHitRate) {
  ServingMetrics metrics(100.0e6);
  metrics.record(response_with_latency(0, 500));
  RunTotals totals;
  totals.offered = 1;
  totals.makespan = 500;
  const ServingReport report = metrics.finalize(std::move(totals));
  EXPECT_EQ(report.deadline_total, 0U);
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate, 1.0);
}

TEST(ServingMetrics, ServingEnergyFoldsActivityAndMakespan) {
  ServingMetrics metrics(100.0e6);
  metrics.record(response_with_latency(0, 1'000'000));
  metrics.record(response_with_latency(0, 1'000'000));

  RunTotals totals;
  totals.offered = 2;
  totals.makespan = 1'000'000;  // 10 ms at 100 MHz
  totals.devices.resize(2);     // two pool devices burn static power
  totals.device_ops.mac = 1'000'000;
  totals.link_active_cycles = 100'000;
  const ServingReport report = metrics.finalize(std::move(totals));

  const power::FpgaPowerConfig power;
  const double seconds = 0.01;
  EXPECT_DOUBLE_EQ(report.energy.dynamic_joules, 1.0e6 * power.mac_j);
  EXPECT_DOUBLE_EQ(report.energy.link_joules,
                   0.001 * power.link_active_watts);
  EXPECT_DOUBLE_EQ(
      report.energy.static_joules,
      (power.static_watts + power.clock_watts_per_hz * 100.0e6) * seconds *
          2.0);
  EXPECT_DOUBLE_EQ(report.energy.total_joules,
                   report.energy.dynamic_joules + report.energy.link_joules +
                       report.energy.static_joules);
  EXPECT_DOUBLE_EQ(report.energy.per_inference_joules,
                   report.energy.total_joules / 2.0);
  EXPECT_DOUBLE_EQ(report.energy.mean_watts,
                   report.energy.total_joules / seconds);
}

TEST(ServingMetrics, CarriesEvictionAndStealingCounters) {
  ServingMetrics metrics(100.0e6);
  metrics.record(response_with_latency(0, 500));
  RunTotals totals;
  totals.offered = 1;
  totals.makespan = 500;
  totals.model_evictions = 7;
  totals.stolen_batches = 3;
  const ServingReport report = metrics.finalize(std::move(totals));
  EXPECT_EQ(report.model_evictions, 7U);
  EXPECT_EQ(report.stolen_batches, 3U);
}

}  // namespace
}  // namespace mann::serve
