#include "serve/batcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

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
    // Borrowed, not copied: the request's own corpus pointer, in order.
    EXPECT_EQ(batch->stories[i], batch->requests[i].story);
    EXPECT_EQ(batch->stories[i], &stories[i]);
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

TEST(Batcher, HeadEnqueuedAfterNowHasNotWaited) {
  // A head stamped ahead of the poll clock has waited no cycles, not
  // ~2^64 of them: it times out max_wait_cycles after its own stamp.
  const auto stories = tiny_stories(1);
  Batcher batcher(small_config(), 1);  // max_wait 100
  ASSERT_TRUE(batcher.enqueue(make_request(0, 0, stories[0], 500)));
  EXPECT_FALSE(batcher.poll(100).has_value());
  EXPECT_FALSE(batcher.poll(599).has_value());
  EXPECT_TRUE(batcher.poll(600).has_value());
  EXPECT_EQ(batcher.counters().flush_timeout, 1U);
}

TEST(Batcher, NoDeadlineWhenRequestsNeverTimeOut) {
  // max_wait_cycles = kNever flushes only on full: the timeout cycle is
  // past the clock's range, so next_deadline() reports none.
  const auto stories = tiny_stories(1);
  BatcherConfig config = small_config();
  config.max_wait_cycles = sim::kNever;
  Batcher batcher(config, 1);
  ASSERT_TRUE(batcher.enqueue(make_request(0, 0, stories[0], 10)));
  EXPECT_EQ(batcher.next_deadline(), sim::kNever);
  EXPECT_FALSE(batcher.poll(1'000'000'000).has_value());
}

/// The linear scan Batcher replaces with ordered lane sets: from the
/// rotation cursor, the first lane that is full or whose head has waited
/// max_wait_cycles (a head enqueued after `now` has not waited); drain
/// takes the first non-empty lane. Lanes are task-major, tenant-minor.
class ScanBatcher {
 public:
  struct Flush {
    std::size_t lane = 0;
    std::vector<RequestId> ids;
  };

  ScanBatcher(BatcherConfig config, std::size_t lanes)
      : config_(config), lanes_(lanes) {}

  bool enqueue(std::size_t lane, const InferenceRequest& request) {
    if (lanes_[lane].size() >= config_.queue_capacity) {
      return false;
    }
    lanes_[lane].push_back(request);
    return true;
  }

  std::optional<Flush> poll(sim::Cycle now) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const std::size_t lane = (cursor_ + i) % lanes_.size();
      const std::deque<InferenceRequest>& q = lanes_[lane];
      if (q.empty()) {
        continue;
      }
      const sim::Cycle head = q.front().enqueue_cycle;
      const bool full = q.size() >= config_.max_batch;
      const bool waited =
          head <= now && now - head >= config_.max_wait_cycles;
      if (full || waited) {
        ++(full ? flush_full : flush_timeout);
        return flush(lane);
      }
    }
    return std::nullopt;
  }

  std::optional<Flush> drain() {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const std::size_t lane = (cursor_ + i) % lanes_.size();
      if (!lanes_[lane].empty()) {
        return flush(lane);
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] sim::Cycle next_deadline() const {
    sim::Cycle deadline = sim::kNever;
    for (const std::deque<InferenceRequest>& q : lanes_) {
      if (!q.empty() &&
          q.front().enqueue_cycle < sim::kNever - config_.max_wait_cycles) {
        deadline = std::min(deadline,
                            q.front().enqueue_cycle + config_.max_wait_cycles);
      }
    }
    return deadline;
  }

  std::uint64_t flush_full = 0;
  std::uint64_t flush_timeout = 0;

 private:
  Flush flush(std::size_t lane) {
    Flush out;
    out.lane = lane;
    std::deque<InferenceRequest>& q = lanes_[lane];
    while (!q.empty() && out.ids.size() < config_.max_batch) {
      out.ids.push_back(q.front().id);
      q.pop_front();
    }
    cursor_ = (lane + 1) % lanes_.size();
    return out;
  }

  BatcherConfig config_;
  std::vector<std::deque<InferenceRequest>> lanes_;
  std::size_t cursor_ = 0;
};

void expect_same_flush(const std::optional<Batch>& batch,
                       const std::optional<ScanBatcher::Flush>& expected,
                       std::size_t tenants) {
  ASSERT_EQ(batch.has_value(), expected.has_value());
  if (!batch) {
    return;
  }
  EXPECT_EQ(batch->task * tenants + batch->tenant, expected->lane);
  std::vector<RequestId> ids;
  for (const InferenceRequest& request : batch->requests) {
    ids.push_back(request.id);
  }
  EXPECT_EQ(ids, expected->ids);
}

TEST(Batcher, ReadyLaneMatchesLinearScanUnderSeededTraffic) {
  // 3 tasks x 3 tenants: bursts of up to 6 onto one lane (max_batch 4,
  // so lanes overfill and flush partially), some stamped ahead of the
  // clock, clock steps that land on next_deadline() and one cycle before
  // it, and poll runs that meet full and timed-out lanes at once while
  // the cursor wraps. Every flush, counter and deadline must equal the
  // scan's.
  const auto stories = tiny_stories(16);
  BatcherConfig config = small_config();  // max_batch 4, max_wait 100
  config.queue_capacity = 12;
  constexpr std::size_t kTasks = 3;
  constexpr std::size_t kTenants = 3;
  for (const std::uint64_t seed : {2019U, 7U, 8675U}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Batcher batcher(config, kTasks, kTenants);
    ScanBatcher scan(config, kTasks * kTenants);
    numeric::Rng rng(seed);
    RequestId next_id = 0;
    sim::Cycle now = 0;
    std::uint64_t drained = 0;
    for (std::size_t step = 0; step < 4000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::size_t op = rng.index(20);
      if (op < 9) {
        const std::size_t task = rng.index(kTasks);
        const auto tenant = static_cast<TenantId>(rng.index(kTenants));
        const sim::Cycle at =
            rng.index(20) == 0 ? now + 1 + rng.index(50) : now;
        for (std::size_t burst = 1 + rng.index(6); burst > 0; --burst) {
          const InferenceRequest request =
              tenant_request(next_id++, task, tenant,
                             stories[rng.index(stories.size())], at);
          ASSERT_EQ(batcher.enqueue(request),
                    scan.enqueue(task * kTenants + tenant, request));
        }
      } else if (op < 13) {
        now += rng.index(60);
      } else if (op < 15) {
        const sim::Cycle deadline = scan.next_deadline();
        if (deadline != sim::kNever && deadline > now) {
          now = deadline - rng.index(2);
        }
      } else if (op < 19) {
        for (std::size_t polls = 1 + rng.index(4); polls > 0; --polls) {
          const std::optional<ScanBatcher::Flush> expected = scan.poll(now);
          expect_same_flush(batcher.poll(now), expected, kTenants);
          if (!expected) {
            break;
          }
        }
      } else {
        const std::optional<ScanBatcher::Flush> expected = scan.drain();
        drained += expected ? 1 : 0;
        expect_same_flush(batcher.drain(now), expected, kTenants);
      }
      ASSERT_EQ(batcher.counters().flush_full, scan.flush_full);
      ASSERT_EQ(batcher.counters().flush_timeout, scan.flush_timeout);
      ASSERT_EQ(batcher.counters().flush_drain, drained);
      ASSERT_EQ(batcher.next_deadline(), scan.next_deadline());
      if (HasFailure()) {
        return;
      }
    }
    EXPECT_GT(scan.flush_full, 100U);
    EXPECT_GT(scan.flush_timeout, 100U);
  }
}

}  // namespace
}  // namespace mann::serve
