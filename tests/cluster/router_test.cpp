// Router policies: placement properties and the determinism contract.
// The key claims: consistent hashing is *stable* (instance add/remove
// moves only the departed/arrived arcs, ~K/N of K keys), power-of-two
// prefers the less-loaded sample and replays byte-identically for a
// fixed seed, and tenant spill walks home -> spill set -> router shed.
#include "cluster/router.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

namespace mann::cluster {
namespace {

std::vector<InstanceStatus> uniform_statuses(std::size_t n,
                                             std::size_t depth = 0) {
  std::vector<InstanceStatus> status(n);
  for (std::size_t i = 0; i < n; ++i) {
    status[i].id = i;
    status[i].queue_depth = depth;
  }
  return status;
}

std::vector<InstanceId> iota_ids(std::size_t n) {
  std::vector<InstanceId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = i;
  }
  return ids;
}

TEST(HashRing, RemovalMovesOnlyTheDepartedArcs) {
  constexpr std::size_t kKeys = 2000;
  constexpr std::size_t kInstances = 4;
  HashRing ring;
  ring.rebuild(iota_ids(kInstances));
  std::map<std::uint64_t, InstanceId> before;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    before[key] = ring.owner(key);
  }

  ring.rebuild({0, 1, 2});  // instance 3 leaves
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const InstanceId now = ring.owner(key);
    if (now != before[key]) {
      // Every moved key must have belonged to the departed instance;
      // keys between surviving instances never move.
      EXPECT_EQ(before[key], 3u) << "key " << key << " moved gratuitously";
      ++moved;
    }
    EXPECT_NE(now, 3u);
  }
  // ~K/N keys move (the departed instance's share), within generous
  // bounds for hash variance.
  EXPECT_GT(moved, kKeys / (2 * kInstances));
  EXPECT_LT(moved, kKeys / kInstances * 2);
}

TEST(HashRing, AdditionMovesOnlyArcsOntoTheNewInstance) {
  constexpr std::size_t kKeys = 2000;
  HashRing ring;
  ring.rebuild(iota_ids(3));
  std::map<std::uint64_t, InstanceId> before;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    before[key] = ring.owner(key);
  }
  ring.rebuild(iota_ids(4));  // instance 3 joins
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const InstanceId now = ring.owner(key);
    if (now != before[key]) {
      EXPECT_EQ(now, 3u) << "key " << key << " moved between survivors";
      ++moved;
    }
  }
  EXPECT_GT(moved, kKeys / 8);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(TaskAffinity, SameTaskAlwaysLandsOnTheSameInstance) {
  RouterConfig config;
  config.kind = RouterPolicyKind::kTaskAffinity;
  auto policy = make_router_policy(config);
  policy->set_topology(iota_ids(4));
  const auto status = uniform_statuses(4);
  for (std::size_t task = 0; task < 16; ++task) {
    const auto first = policy->route({task, 0, 0}, status);
    ASSERT_TRUE(first.has_value());
    for (int repeat = 0; repeat < 5; ++repeat) {
      EXPECT_EQ(policy->route({task, 0, 1000}, status), first);
    }
  }
}

TEST(TaskAffinity, SpillsPastASaturatedOwnerAndFallsBackWhenAllFull) {
  RouterConfig config;
  config.kind = RouterPolicyKind::kTaskAffinity;
  config.spill_queue_threshold = 8;
  auto policy = make_router_policy(config);
  policy->set_topology(iota_ids(3));
  auto status = uniform_statuses(3);
  const auto owner = policy->route({5, 0, 0}, status);
  ASSERT_TRUE(owner.has_value());

  status[*owner].queue_depth = 8;  // saturate the owner
  const auto spilled = policy->route({5, 0, 0}, status);
  ASSERT_TRUE(spilled.has_value());
  EXPECT_NE(*spilled, *owner);

  for (auto& s : status) {
    s.queue_depth = 100;  // whole fleet saturated: affinity never sheds
  }
  EXPECT_EQ(policy->route({5, 0, 0}, status), owner);
}

TEST(PowerOfTwo, PrefersTheLessLoadedSampleAndNeverPicksOutsideActive) {
  RouterConfig config;
  config.kind = RouterPolicyKind::kPowerOfTwo;
  auto policy = make_router_policy(config);
  policy->set_topology({0, 2, 3});  // instance 1 is parked
  auto status = uniform_statuses(4);
  status[0].queue_depth = 50;
  status[2].queue_depth = 50;
  status[3].queue_depth = 0;
  std::size_t picked_empty = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto choice = policy->route({i, 0, i}, status);
    ASSERT_TRUE(choice.has_value());
    EXPECT_NE(*choice, 1u);
    picked_empty += *choice == 3u ? 1 : 0;
  }
  // Instance 3 wins every decision that samples it: P(sampled) = 2/3 of
  // draws in expectation; assert well above what uniform-random (1/3 of
  // 200) would give.
  EXPECT_GT(picked_empty, 100u);
}

TEST(PowerOfTwo, FixedSeedReplaysByteIdentically) {
  RouterConfig config;
  config.kind = RouterPolicyKind::kPowerOfTwo;
  config.seed = 77;
  auto a = make_router_policy(config);
  auto b = make_router_policy(config);
  a->set_topology(iota_ids(5));
  b->set_topology(iota_ids(5));
  auto status = uniform_statuses(5);
  for (std::size_t i = 0; i < 500; ++i) {
    status[i % 5].queue_depth = (i * 7) % 13;  // shifting load picture
    EXPECT_EQ(a->route({i, 0, i}, status), b->route({i, 0, i}, status));
  }
}

TEST(TenantSpill, HomesThenSpillsThenSheds) {
  RouterConfig config;
  config.kind = RouterPolicyKind::kTenantSpill;
  config.spill_queue_threshold = 4;
  auto policy = make_router_policy(config);
  policy->set_topology(iota_ids(3));
  auto status = uniform_statuses(3);

  // Tenant t homes on t % 3 while everyone is under the threshold.
  EXPECT_EQ(policy->route({0, 1, 0}, status), std::optional<InstanceId>{1});
  EXPECT_EQ(policy->route({0, 4, 0}, status), std::optional<InstanceId>{1});

  status[1].queue_depth = 4;  // home saturated: first spill target is 2
  EXPECT_EQ(policy->route({0, 1, 0}, status), std::optional<InstanceId>{2});

  status[2].queue_depth = 4;
  EXPECT_EQ(policy->route({0, 1, 0}, status), std::optional<InstanceId>{0});

  status[0].queue_depth = 4;  // whole spill set saturated: router shed
  EXPECT_EQ(policy->route({0, 1, 0}, status), std::nullopt);
}

TEST(TenantSpill, ConfiguredHomeDegradesToModuloWhenParked) {
  RouterConfig config;
  config.kind = RouterPolicyKind::kTenantSpill;
  config.tenant_home = {2, 2, 2};  // every tenant pinned to instance 2
  auto policy = make_router_policy(config);
  policy->set_topology(iota_ids(3));
  const auto status = uniform_statuses(3);
  EXPECT_EQ(policy->route({0, 1, 0}, status), std::optional<InstanceId>{2});

  policy->set_topology({0, 1});  // instance 2 parked
  EXPECT_EQ(policy->route({0, 1, 0}, uniform_statuses(3)),
            std::optional<InstanceId>{1});
}

TEST(Router, PolicyNamesRoundTrip) {
  const std::pair<RouterPolicyKind, const char*> names[] = {
      {RouterPolicyKind::kTaskAffinity, "task_affinity"},
      {RouterPolicyKind::kPowerOfTwo, "power_of_two"},
      {RouterPolicyKind::kTenantSpill, "tenant_spill"},
  };
  for (const auto& [kind, name] : names) {
    RouterConfig config;
    config.kind = kind;
    EXPECT_STREQ(make_router_policy(config)->name(), name);
  }
}

}  // namespace
}  // namespace mann::cluster
