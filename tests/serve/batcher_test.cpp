#include "serve/batcher.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "numeric/random.hpp"
#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::make_request;
using testing::tiny_stories;

BatcherConfig small_config() {
  BatcherConfig config;
  config.max_batch = 4;
  config.max_wait_cycles = 100;
  config.queue_capacity = 8;
  return config;
}

TEST(Batcher, RejectsBadConstruction) {
  EXPECT_THROW(Batcher(small_config(), 0), std::invalid_argument);
  BatcherConfig zero_batch = small_config();
  zero_batch.max_batch = 0;
  EXPECT_THROW(Batcher(zero_batch, 1), std::invalid_argument);
}

TEST(Batcher, EmptyQueuePollsNothing) {
  Batcher batcher(small_config(), 2);
  EXPECT_EQ(batcher.pending(), 0U);
  EXPECT_FALSE(batcher.poll(0).has_value());
  EXPECT_FALSE(batcher.poll(1'000'000).has_value());
  EXPECT_FALSE(batcher.drain(0).has_value());
  EXPECT_EQ(batcher.next_deadline(), sim::kNever);
}

TEST(Batcher, SingleRequestWaitsForTimeout) {
  const auto stories = tiny_stories(1);
  Batcher batcher(small_config(), 1);
  ASSERT_TRUE(batcher.enqueue(make_request(0, 0, stories[0], 10)));

  // Below max_batch and younger than max_wait: held back.
  EXPECT_FALSE(batcher.poll(10).has_value());
  EXPECT_FALSE(batcher.poll(109).has_value());
  EXPECT_EQ(batcher.next_deadline(), 110U);

  // Oldest request aged out: flushed even at batch size 1.
  const auto batch = batcher.poll(110);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 1U);
  EXPECT_EQ(batch->task, 0U);
  EXPECT_EQ(batch->requests[0].id, 0U);
  EXPECT_EQ(batcher.counters().flush_timeout, 1U);
  EXPECT_EQ(batcher.counters().flush_full, 0U);
  EXPECT_EQ(batcher.pending(), 0U);
}

TEST(Batcher, FlushesOnFullBeforeTimeout) {
  const auto stories = tiny_stories(6);
  Batcher batcher(small_config(), 1);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(batcher.enqueue(
        make_request(i, 0, stories[i], static_cast<sim::Cycle>(i))));
  }

  // Queue holds 6 >= max_batch(4): an immediate poll flushes exactly 4,
  // oldest first, with no waiting.
  const auto batch = batcher.poll(6);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 4U);
  EXPECT_EQ(batch->requests.front().id, 0U);
  EXPECT_EQ(batch->requests.back().id, 3U);
  EXPECT_EQ(batcher.counters().flush_full, 1U);
  EXPECT_EQ(batcher.pending(), 2U);

  // The remaining 2 are below max_batch: they wait for the timeout.
  EXPECT_FALSE(batcher.poll(6).has_value());
  const auto tail = batcher.poll(4 + 100);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->size(), 2U);
  EXPECT_EQ(batcher.counters().flush_timeout, 1U);
}

TEST(Batcher, BatchCarriesStoriesInRequestOrder) {
  const auto stories = tiny_stories(4);
  Batcher batcher(small_config(), 1);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(batcher.enqueue(make_request(i, 0, stories[i], 0)));
  }
  const auto batch = batcher.poll(0);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->stories.size(), batch->requests.size());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_EQ(batch->stories[i].answer, stories[i].answer);
  }
}

TEST(Batcher, KeepsTasksSeparate) {
  const auto stories = tiny_stories(8);
  Batcher batcher(small_config(), 2);
  // Interleave two tasks; each flush must be single-task.
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(batcher.enqueue(make_request(i, i % 2, stories[i], 0)));
  }
  const auto first = batcher.poll(0);
  const auto second = batcher.poll(0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->task, second->task);
  for (const auto& batch : {*first, *second}) {
    EXPECT_EQ(batch.size(), 4U);
    for (const auto& request : batch.requests) {
      EXPECT_EQ(request.task, batch.task);
    }
  }
}

TEST(Batcher, ShedsWhenQueueFull) {
  const auto stories = tiny_stories(10);
  Batcher batcher(small_config(), 1);  // capacity 8
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(batcher.enqueue(make_request(i, 0, stories[i], 0)));
  }
  EXPECT_FALSE(batcher.enqueue(make_request(8, 0, stories[8], 0)));
  EXPECT_FALSE(batcher.enqueue(make_request(9, 0, stories[9], 0)));
  EXPECT_EQ(batcher.counters().requests_in, 8U);
}

TEST(Batcher, DrainFlushesRegardlessOfAge) {
  const auto stories = tiny_stories(3);
  Batcher batcher(small_config(), 2);
  ASSERT_TRUE(batcher.enqueue(make_request(0, 0, stories[0], 50)));
  ASSERT_TRUE(batcher.enqueue(make_request(1, 1, stories[1], 50)));
  ASSERT_TRUE(batcher.enqueue(make_request(2, 1, stories[2], 50)));

  EXPECT_FALSE(batcher.poll(50).has_value());  // nothing full or aged
  const auto first = batcher.drain(50);
  const auto second = batcher.drain(50);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->size() + second->size(), 3U);
  EXPECT_EQ(batcher.counters().flush_drain, 2U);
  EXPECT_EQ(batcher.pending(), 0U);
  EXPECT_FALSE(batcher.drain(50).has_value());
}

TEST(Batcher, RejectsUnknownTaskAndNullStory) {
  const auto stories = tiny_stories(1);
  Batcher batcher(small_config(), 1);
  EXPECT_THROW((void)batcher.enqueue(make_request(0, 5, stories[0], 0)),
               std::out_of_range);
  InferenceRequest null_story = make_request(0, 0, stories[0], 0);
  null_story.story = nullptr;
  EXPECT_THROW((void)batcher.enqueue(null_story), std::invalid_argument);
}

TEST(Batcher, DeadlineTracksOldestAcrossTasks) {
  const auto stories = tiny_stories(2);
  Batcher batcher(small_config(), 2);
  ASSERT_TRUE(batcher.enqueue(make_request(0, 1, stories[0], 30)));
  ASSERT_TRUE(batcher.enqueue(make_request(1, 0, stories[1], 20)));
  EXPECT_EQ(batcher.next_deadline(), 120U);  // task 0's head is oldest
}

InferenceRequest tenant_request(RequestId id, std::size_t task,
                                TenantId tenant,
                                const data::EncodedStory& story,
                                sim::Cycle enqueue) {
  InferenceRequest request = make_request(id, task, story, enqueue);
  request.tenant = tenant;
  return request;
}

TEST(Batcher, TenantsBatchInSeparateLanes) {
  // Same task, different tenants: each flushes as its own batch (tenant
  // isolation starts at queueing), stamped with its tenant id.
  const auto stories = tiny_stories(4);
  Batcher batcher(small_config(), 1, /*num_tenants=*/2);
  ASSERT_TRUE(batcher.enqueue(tenant_request(0, 0, 0, stories[0], 10)));
  ASSERT_TRUE(batcher.enqueue(tenant_request(1, 0, 1, stories[1], 10)));
  ASSERT_TRUE(batcher.enqueue(tenant_request(2, 0, 0, stories[2], 10)));

  EXPECT_EQ(batcher.pending(), 3U);
  const auto first = batcher.drain(10);
  const auto second = batcher.drain(10);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->task, 0U);
  EXPECT_EQ(second->task, 0U);
  EXPECT_EQ(first->tenant, 0U);
  EXPECT_EQ(second->tenant, 1U);
  EXPECT_EQ(first->size(), 2U);
  EXPECT_EQ(second->size(), 1U);
  for (const InferenceRequest& r : first->requests) {
    EXPECT_EQ(r.tenant, 0U);
  }
}

TEST(Batcher, TenantLaneFullFlushesIndependently) {
  // One tenant's full lane flushes while the other tenant keeps waiting
  // for its own timeout — no cross-tenant coupling.
  const auto stories = tiny_stories(8);
  Batcher batcher(small_config(), 1, /*num_tenants=*/2);  // max_batch 4
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(batcher.enqueue(tenant_request(i, 0, 1, stories[i], 10)));
  }
  ASSERT_TRUE(batcher.enqueue(tenant_request(9, 0, 0, stories[4], 10)));

  const auto batch = batcher.poll(10);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->tenant, 1U);
  EXPECT_EQ(batch->size(), 4U);
  EXPECT_FALSE(batcher.poll(10).has_value());  // tenant 0 still waiting
  EXPECT_EQ(batcher.pending(), 1U);
}

TEST(Batcher, RejectsUnknownTenant) {
  const auto stories = tiny_stories(1);
  Batcher batcher(small_config(), 1, /*num_tenants=*/2);
  EXPECT_THROW((void)batcher.enqueue(tenant_request(0, 0, 2, stories[0], 0)),
               std::out_of_range);
  EXPECT_THROW(Batcher(small_config(), 1, 0), std::invalid_argument);
}

TEST(Batcher, PendingCountsEnqueuedMinusFlushedUnderSeededTraffic) {
  // Random enqueues (full lanes refuse), polls and drains over 3 tasks x
  // 2 tenants; pending() is a running count, so it must equal what went
  // in minus what came out after every call.
  const auto stories = tiny_stories(16);
  Batcher batcher(small_config(), 3, /*num_tenants=*/2);
  numeric::Rng rng(2019);
  std::size_t in = 0;
  std::size_t out = 0;
  sim::Cycle now = 0;
  for (RequestId id = 0; id < 3000; ++id) {
    now += rng.index(40);
    const std::size_t op = rng.index(10);
    if (op < 6) {
      const InferenceRequest request =
          tenant_request(id, rng.index(3), static_cast<TenantId>(rng.index(2)),
                         stories[rng.index(stories.size())], now);
      in += batcher.enqueue(request) ? 1 : 0;
    } else {
      const auto batch = op < 9 ? batcher.poll(now) : batcher.drain(now);
      out += batch ? batch->size() : 0;
    }
    ASSERT_EQ(batcher.pending(), in - out) << "after call " << id;
  }
  while (const auto batch = batcher.drain(now)) {
    out += batch->size();
    ASSERT_EQ(batcher.pending(), in - out);
  }
  EXPECT_EQ(batcher.pending(), 0U);
  EXPECT_GT(out, 0U);
}

}  // namespace
}  // namespace mann::serve
