#include "serve/eviction.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mann::serve {
namespace {

EvictionCandidate candidate(std::size_t slot, std::size_t task,
                            sim::Cycle last_dispatch, sim::Cycle reload) {
  EvictionCandidate c;
  c.slot = slot;
  c.resident_task = task;
  c.last_dispatch_cycle = last_dispatch;
  c.reload_cycles = reload;
  return c;
}

TEST(EvictionPolicy, FactoryMatchesKinds) {
  EXPECT_STREQ(make_eviction_policy(EvictionPolicyKind::kLru)->name(), "lru");
  EXPECT_STREQ(make_eviction_policy(EvictionPolicyKind::kCostAware)->name(),
               "cost");
}

TEST(EvictionPolicy, RejectsEmptyCandidateList) {
  const LruEviction lru;
  EXPECT_THROW((void)lru.pick_victim({}), std::invalid_argument);
}

TEST(EvictionPolicy, LruEvictsLeastRecentlyDispatched) {
  const LruEviction lru;
  const std::vector<EvictionCandidate> candidates = {
      candidate(0, 4, /*last_dispatch=*/900, 100),
      candidate(1, 5, /*last_dispatch=*/100, 900),
      candidate(2, 6, /*last_dispatch=*/500, 10),
  };
  EXPECT_EQ(lru.pick_victim(candidates), 1U);
}

TEST(EvictionPolicy, LruTieFallsToLowestSlot) {
  const LruEviction lru;
  const std::vector<EvictionCandidate> candidates = {
      candidate(3, 4, 100, 1),
      candidate(7, 5, 100, 1),
  };
  EXPECT_EQ(lru.pick_victim(candidates), 0U);
}

TEST(EvictionPolicy, CostAwareEvictsCheapestReload) {
  const CostAwareEviction cost;
  const std::vector<EvictionCandidate> candidates = {
      candidate(0, 4, 100, /*reload=*/5'000),
      candidate(1, 5, 900, /*reload=*/200),
      candidate(2, 6, 500, /*reload=*/90'000),
  };
  EXPECT_EQ(cost.pick_victim(candidates), 1U);
}

TEST(EvictionPolicy, CostAwareTieFallsToLru) {
  const CostAwareEviction cost;
  const std::vector<EvictionCandidate> candidates = {
      candidate(0, 4, /*last_dispatch=*/900, 200),
      candidate(1, 5, /*last_dispatch=*/100, 200),
  };
  EXPECT_EQ(cost.pick_victim(candidates), 1U);
}

}  // namespace
}  // namespace mann::serve
