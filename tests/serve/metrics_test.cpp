#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "numeric/random.hpp"
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

/// The nearest-rank rule by a full sort: the sample at 1-based rank
/// ceil(q·n), clamped to [1, n].
double sorted_rank(const std::vector<sim::Cycle>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = std::clamp(static_cast<std::size_t>(std::ceil(q * n)),
                               std::size_t{1}, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

TEST(SummarizeLatency, SelectionMatchesASortedNearestRank) {
  // Seeded sample sets of every shape selection can get wrong: sizes 1
  // to a few thousand (for n <= 20 the p95 and p99 ranks coincide with
  // the max; n = 100 and 200 put p99 one and two below it), all-equal
  // samples, few distinct values (long runs of duplicates) and wide
  // distinct ones, each shuffled.
  numeric::Rng rng(2019);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 40; ++n) {
    sizes.push_back(n);
  }
  for (const std::size_t n : {99U, 100U, 101U, 199U, 200U, 201U, 1000U,
                              1999U, 2000U, 4096U}) {
    sizes.push_back(n);
  }
  for (std::size_t i = 0; i < 20; ++i) {
    sizes.push_back(1 + rng.index(3000));
  }
  const double clock_hz = 100.0e6;
  for (const std::size_t n : sizes) {
    for (const std::size_t values : {1U, 3U, 1'000'000'000U}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", " + std::to_string(values) +
                   " possible values");
      std::vector<sim::Cycle> samples(n);
      for (sim::Cycle& sample : samples) {
        sample = 50 + rng.index(values);
      }
      std::vector<sim::Cycle> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      const LatencySummary s = summarize_latency(samples, clock_hz);
      const double mean =
          static_cast<double>(
              std::accumulate(sorted.begin(), sorted.end(), sim::Cycle{0})) /
          static_cast<double>(n);
      EXPECT_EQ(s.mean_cycles, mean);
      EXPECT_EQ(s.p50_cycles, sorted_rank(sorted, 0.50));
      EXPECT_EQ(s.p95_cycles, sorted_rank(sorted, 0.95));
      EXPECT_EQ(s.p99_cycles, sorted_rank(sorted, 0.99));
      EXPECT_EQ(s.max_cycles, static_cast<double>(sorted.back()));
      EXPECT_EQ(s.p50_seconds, sorted_rank(sorted, 0.50) / clock_hz);
      EXPECT_EQ(s.p99_seconds, sorted_rank(sorted, 0.99) / clock_hz);
      EXPECT_EQ(s.max_seconds, static_cast<double>(sorted.back()) / clock_hz);
    }
  }
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
