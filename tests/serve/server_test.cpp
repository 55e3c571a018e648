#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "serve/request.hpp"
#include "serve/session.hpp"
#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::tiny_program;
using testing::tiny_stories;

ServerConfig small_server_config() {
  ServerConfig config;
  config.traffic.mean_interarrival_cycles = 5'000.0;
  config.traffic.seed = 99;
  config.batcher.max_batch = 4;
  config.batcher.max_wait_cycles = 50'000;
  config.scheduler.devices = 2;
  return config;
}

std::vector<ServedModel> two_models(
    const std::vector<data::EncodedStory>& stories) {
  std::vector<ServedModel> models;
  models.push_back({tiny_program(7), stories});
  models.push_back({tiny_program(8), stories});
  return models;
}

TEST(TrafficGenerator, DeterministicFromSeed) {
  TrafficConfig config;
  config.mean_interarrival_cycles = 1'000.0;
  config.seed = 11;
  auto emit_all = [&] {
    TrafficGenerator gen(config, 2, 20);
    std::vector<TraceEntry> out;
    while (auto r = gen.poll(sim::kNever - 1)) {
      out.push_back(*r);
    }
    return out;
  };
  const auto first = emit_all();
  const auto second = emit_all();
  ASSERT_EQ(first.size(), 20U);
  EXPECT_EQ(first, second);
  // Arrivals are strictly ordered and roughly at the configured rate.
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_GT(first[i].arrival_cycle, first[i - 1].arrival_cycle);
  }
}

TEST(TrafficGenerator, HonoursArrivalTimes) {
  TrafficConfig config;
  config.mean_interarrival_cycles = 1'000.0;
  TrafficGenerator gen(config, 1, 4);
  const sim::Cycle first_arrival = gen.next_arrival();
  ASSERT_NE(first_arrival, sim::kNever);
  EXPECT_FALSE(gen.poll(first_arrival - 1).has_value());
  EXPECT_TRUE(gen.poll(first_arrival).has_value());
}

TEST(TrafficGenerator, BurstyKeepsLongRunRate) {
  TrafficConfig config;
  config.process = ArrivalProcess::kBursty;
  config.mean_interarrival_cycles = 2'000.0;
  config.burst_mean = 6.0;
  config.burst_gap_cycles = 32.0;
  TrafficGenerator gen(config, 1, 2'000);
  sim::Cycle last = 0;
  while (auto r = gen.poll(sim::kNever - 1)) {
    last = r->arrival_cycle;
  }
  const double mean_gap = static_cast<double>(last) / 2'000.0;
  // Long-run rate within 25% of the Poisson-equivalent configuration.
  EXPECT_GT(mean_gap, 1'500.0);
  EXPECT_LT(mean_gap, 2'500.0);
}

TEST(TrafficGenerator, RejectsBurstGapExceedingRateBudget) {
  TrafficConfig config;
  config.process = ArrivalProcess::kBursty;
  config.mean_interarrival_cycles = 50.0;
  config.burst_mean = 8.0;
  config.burst_gap_cycles = 64.0;  // 7*64 > 8*50: rate cannot be honoured
  EXPECT_THROW(TrafficGenerator(config, 1, 10),
               std::invalid_argument);
  // A mean that is not a finite positive number has no budget at all.
  for (const double mean : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    config.mean_interarrival_cycles = mean;
    EXPECT_THROW(TrafficGenerator(config, 1, 10),
                 std::invalid_argument);
  }
}

TEST(Server, AnswersEveryRequestDeterministically) {
  const auto stories = tiny_stories(6);
  const auto models = two_models(stories);
  const ServingReport first = run(small_server_config(), models, 40);
  const ServingReport second = run(small_server_config(), models, 40);

  EXPECT_EQ(first.offered, 40U);
  EXPECT_EQ(first.completed, 40U);
  EXPECT_EQ(first.rejected, 0U);
  EXPECT_EQ(first.makespan_cycles, second.makespan_cycles);
  EXPECT_EQ(first.latency.p99_cycles, second.latency.p99_cycles);
  EXPECT_EQ(first.batching.batches_out, second.batching.batches_out);
  EXPECT_GT(first.throughput_stories_per_second, 0.0);
  EXPECT_GT(first.mean_batch_size, 0.0);
  EXPECT_LE(first.mean_batch_size,
            static_cast<double>(small_server_config().batcher.max_batch));
  EXPECT_GE(first.latency.p99_cycles, first.latency.p50_cycles);
}

TEST(Server, NoRequestDroppedUnderBurstLoad) {
  const auto stories = tiny_stories(8);
  ServerConfig config = small_server_config();
  config.traffic.process = ArrivalProcess::kBursty;
  config.traffic.mean_interarrival_cycles = 1'000.0;
  config.traffic.burst_mean = 12.0;
  config.traffic.burst_gap_cycles = 16.0;
  const ServingReport report = run(config, two_models(stories), 200);
  EXPECT_EQ(report.offered, 200U);
  EXPECT_EQ(report.completed, 200U);
  EXPECT_EQ(report.rejected, 0U);
}

TEST(Server, PoolScalingImprovesThroughput) {
  const auto stories = tiny_stories(8);
  // Saturating load: arrivals far faster than one device can serve, so
  // makespan is service-bound, not arrival-bound, at both pool sizes.
  ServerConfig config = small_server_config();
  config.traffic.mean_interarrival_cycles = 100.0;

  config.scheduler.devices = 1;
  const ServingReport one = run(config, two_models(stories), 120);
  config.scheduler.devices = 4;
  const ServingReport four = run(config, two_models(stories), 120);

  EXPECT_EQ(one.completed, 120U);
  EXPECT_EQ(four.completed, 120U);
  EXPECT_GT(four.throughput_stories_per_second,
            1.5 * one.throughput_stories_per_second);
  // More devices can only shorten queues at equal offered load.
  EXPECT_LE(four.latency.p99_cycles, one.latency.p99_cycles);
}

TEST(Server, WarmPoolAmortisesModelUploads) {
  const auto stories = tiny_stories(8);
  ServerConfig config = small_server_config();
  config.scheduler.devices = 2;
  const ServingReport report = run(config, two_models(stories), 80);
  // Far fewer uploads than batches: devices stay warm across batches.
  EXPECT_GT(report.batching.batches_out, report.model_uploads);
  EXPECT_GE(report.model_uploads, 2U);  // each program uploaded at least once
}

TEST(Server, ServingAccuracyMatchesDirectRuns) {
  const auto stories = tiny_stories(10);
  ServerConfig config = small_server_config();
  std::vector<ServedModel> models;
  models.push_back({tiny_program(7), stories});
  const ServingReport report = run(config, models, 50);

  // Ground truth: the same program run as one offline batch.
  const accel::Accelerator device(config.accel, tiny_program(7));
  const accel::RunResult offline = device.run(stories);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < stories.size(); ++i) {
    correct += offline.stories[i].prediction == stories[i].answer ? 1 : 0;
  }
  const double offline_accuracy =
      static_cast<double>(correct) / static_cast<double>(stories.size());
  // The generator walks the corpus round-robin, so 50 requests over 10
  // stories cover each story 5 times: identical accuracy.
  EXPECT_DOUBLE_EQ(report.accuracy, offline_accuracy);
}

TEST(Server, RejectsEmptyConfiguration) {
  EXPECT_THROW((void)run(small_server_config(), {}, 1),
               std::invalid_argument);
  const std::vector<data::EncodedStory> empty;
  std::vector<ServedModel> models;
  models.push_back({tiny_program(7), empty});
  EXPECT_THROW((void)run(small_server_config(), models, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace mann::serve
