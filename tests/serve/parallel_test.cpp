// The parallel-runtime contract: host workers and the service-cycle
// cache change wall-clock only. Every simulated number — the timeline,
// the predictions, the percentiles — is bit-identical for any worker
// count, including the sequential escape hatch (workers = 0).
#include <gtest/gtest.h>

#include <vector>

#include "accel/service_cycle_cache.hpp"
#include "serve/session.hpp"
#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::tiny_program;
using testing::tiny_stories;

ServerConfig parallel_server_config(std::size_t workers) {
  ServerConfig config;
  // Saturating load so the pool stays busy and batches repeat enough for
  // the cache to matter.
  config.traffic.mean_interarrival_cycles = 500.0;
  config.traffic.seed = 2019;
  config.batcher.max_batch = 4;
  config.batcher.max_wait_cycles = 50'000;
  config.scheduler.devices = 2;
  config.scheduler.workers = workers;
  config.scheduler.cache_capacity = 64;
  return config;
}

std::vector<ServedModel> two_models(
    const std::vector<data::EncodedStory>& stories) {
  std::vector<ServedModel> models;
  models.push_back({tiny_program(7), stories});
  models.push_back({tiny_program(8), stories});
  return models;
}

void expect_same_simulated_report(const ServingReport& a,
                                  const ServingReport& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.latency.p50_cycles, b.latency.p50_cycles);
  EXPECT_DOUBLE_EQ(a.latency.p95_cycles, b.latency.p95_cycles);
  EXPECT_DOUBLE_EQ(a.latency.p99_cycles, b.latency.p99_cycles);
  EXPECT_DOUBLE_EQ(a.latency.max_cycles, b.latency.max_cycles);
  EXPECT_DOUBLE_EQ(a.queue_wait.p99_cycles, b.queue_wait.p99_cycles);
  EXPECT_EQ(a.model_uploads, b.model_uploads);
  EXPECT_EQ(a.batching.batches_out, b.batching.batches_out);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].busy_cycles, b.devices[i].busy_cycles);
    EXPECT_EQ(a.devices[i].batches, b.devices[i].batches);
    EXPECT_EQ(a.devices[i].stories, b.devices[i].stories);
    EXPECT_EQ(a.devices[i].model_uploads, b.devices[i].model_uploads);
  }
}

TEST(ParallelServing, ReportsIdenticalAcrossWorkerCounts) {
  const auto stories = tiny_stories(10);
  const ServingReport sequential =
      serve::run(parallel_server_config(0), two_models(stories), 80);
  ASSERT_EQ(sequential.completed, 80U);

  for (const std::size_t workers : {1U, 2U, 4U}) {
    const ServingReport parallel =
        serve::run(parallel_server_config(workers), two_models(stories), 80);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_same_simulated_report(sequential, parallel);
    // Every dispatch went through the cache one way or the other.
    EXPECT_GT(parallel.cycle_cache.hits + parallel.cycle_cache.misses, 0U);
  }
}

TEST(ParallelServing, RepeatedRunIsDeterministic) {
  const auto stories = tiny_stories(10);
  const ServingReport first =
      serve::run(parallel_server_config(4), two_models(stories), 60);
  const ServingReport second =
      serve::run(parallel_server_config(4), two_models(stories), 60);
  expect_same_simulated_report(first, second);
}

TEST(ParallelServing, SharedCacheReplaysRepeatedWorkloadInstantly) {
  const auto stories = tiny_stories(10);
  accel::ServiceCycleCache cache(256);
  ServerConfig config = parallel_server_config(2);
  config.scheduler.cycle_cache = &cache;

  const auto models = two_models(stories);
  const ServingReport first = serve::run(config, models, 60);
  const accel::ServiceCycleCacheStats after_first = cache.stats();
  const ServingReport second = serve::run(config, models, 60);

  expect_same_simulated_report(first, second);
  // The second identical run re-simulates nothing, at dispatch or on a
  // worker: speculation is a pure function of the simulated timeline,
  // so every workload either path asks for was published during the
  // first run. The bench's warm leg and its wall gate rest on this.
  const accel::ServiceCycleCacheStats after_second = cache.stats();
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.insertions, after_first.insertions);
  EXPECT_EQ(after_second.entries, after_first.entries);
}

TEST(ParallelServing, AffinitySpeculationStatsAreDeterministic) {
  const auto stories = tiny_stories(10);
  // The predicted variant is recorded at submit and scored against the
  // simulated timeline at dispatch — a pure function of that timeline,
  // so the score cannot depend on how many workers raced ahead.
  ServerConfig two = parallel_server_config(2);
  ServerConfig four = parallel_server_config(4);
  const ServingReport with_two = serve::run(two, two_models(stories), 80);
  const ServingReport with_four = serve::run(four, two_models(stories), 80);

  EXPECT_GT(with_two.speculation.speculated, 0U);
  EXPECT_EQ(with_two.speculation.speculated,
            with_two.speculation.useful + with_two.speculation.wasted);
  EXPECT_TRUE(with_two.speculation == with_four.speculation);
  expect_same_simulated_report(with_two, with_four);
}

TEST(ParallelServing, SequentialPathNeverSpeculates) {
  const auto stories = tiny_stories(10);
  const ServingReport sequential =
      serve::run(parallel_server_config(0), two_models(stories), 60);
  EXPECT_EQ(sequential.speculation.speculated, 0U);
  EXPECT_EQ(sequential.speculation.useful, 0U);
  EXPECT_EQ(sequential.speculation.wasted, 0U);
}

TEST(ParallelServing, CacheWithoutWorkersIsPureMemoization) {
  const auto stories = tiny_stories(10);
  accel::ServiceCycleCache cache(256);
  ServerConfig config = parallel_server_config(0);
  config.scheduler.cycle_cache = &cache;

  const ServingReport cached = serve::run(config, two_models(stories), 60);
  const ServingReport plain =
      serve::run(parallel_server_config(0), two_models(stories), 60);
  expect_same_simulated_report(plain, cached);
  EXPECT_GT(cache.stats().misses, 0U);
}

}  // namespace
}  // namespace mann::serve
