#include "accel/service_cycle_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/compiler.hpp"
#include "accel/stream.hpp"
#include "model/memn2n.hpp"
#include "numeric/random.hpp"
#include "serve/eviction.hpp"

namespace mann::accel {
namespace {

model::ModelConfig tiny_model_config() {
  model::ModelConfig config;
  config.vocab_size = 12;
  config.embedding_dim = 8;
  config.hops = 2;
  config.max_memory = 8;
  return config;
}

DeviceProgram tiny_program(std::uint64_t seed = 7) {
  numeric::Rng rng(seed);
  const model::MemN2N net(tiny_model_config(), rng);
  return compile_model(net);
}

std::vector<data::EncodedStory> tiny_stories(std::size_t count,
                                             std::int32_t offset = 0) {
  std::vector<data::EncodedStory> stories;
  stories.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    data::EncodedStory story;
    const auto w = [&](std::size_t k) {
      return static_cast<std::int32_t>((i + k + offset) % 12);
    };
    story.context = {{w(0), w(1)}, {w(2), w(3)}};
    story.question = {w(4)};
    story.answer = w(5);
    stories.push_back(story);
  }
  return stories;
}

RunResult fake_result(sim::Cycle cycles) {
  RunResult r;
  r.total_cycles = cycles;
  return r;
}

TEST(ServiceCycleCache, RejectsZeroCapacity) {
  EXPECT_THROW(ServiceCycleCache(0), std::invalid_argument);
}

TEST(ServiceCycleCache, DigestDistinguishesStories) {
  const auto a = tiny_stories(4, 0);
  const auto b = tiny_stories(4, 1);
  const auto a_copy = tiny_stories(4, 0);
  const auto digest = [](const std::vector<data::EncodedStory>& stories) {
    return digest_stories(story_pointers(stories));
  };
  EXPECT_NE(digest(a), digest(b));
  // Contents, never addresses: a copy elsewhere digests the same.
  EXPECT_EQ(digest(a), digest(a_copy));
  // Prefix of a batch is a different workload even if contents agree.
  const auto pointers = story_pointers(a);
  EXPECT_NE(digest(a), digest_stories(std::span(pointers.data(), 3)));
}

TEST(ServiceCycleCache, MissThenHit) {
  ServiceCycleCache cache(4);
  const ServiceCycleCache::Key key{1, 2, 3, false};

  EXPECT_FALSE(cache.acquire(key).has_value());  // miss: caller owns it
  cache.publish(key, fake_result(123));

  const std::optional<RunResult> hit = cache.acquire(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->total_cycles, 123U);

  const ServiceCycleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.insertions, 1U);
  EXPECT_EQ(stats.evictions, 0U);
  EXPECT_EQ(stats.entries, 1U);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ServiceCycleCache, OutcomeParameterReportsEachLookupKind) {
  ServiceCycleCache cache(4);
  const ServiceCycleCache::Key key{5, 6, 7, true};

  CacheOutcome outcome = CacheOutcome::kNone;
  EXPECT_FALSE(cache.acquire(key, &outcome).has_value());
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  cache.publish(key, fake_result(9));
  EXPECT_TRUE(cache.acquire(key, &outcome).has_value());
  EXPECT_EQ(outcome, CacheOutcome::kHit);

  // A lookup that blocked on an in-flight computation is a wait, not a
  // hit — and the stats put it in its own bucket.
  const ServiceCycleCache::Key inflight{5, 6, 8, true};
  EXPECT_FALSE(cache.acquire(inflight).has_value());
  std::thread waiter([&] {
    CacheOutcome waited = CacheOutcome::kNone;
    const std::optional<RunResult> seen = cache.acquire(inflight, &waited);
    ASSERT_TRUE(seen.has_value());
    // The waiter may race ahead of the publish and see a plain hit; both
    // outcomes are legal, kMiss is not.
    EXPECT_NE(waited, CacheOutcome::kMiss);
    EXPECT_NE(waited, CacheOutcome::kNone);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cache.publish(inflight, fake_result(11));
  waiter.join();

  const ServiceCycleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.waits + stats.misses, 4U);
  EXPECT_EQ(stats.misses, 2U);
  // Every lookup lands in exactly one bucket, so the rate denominator
  // is the full lookup count.
  EXPECT_DOUBLE_EQ(stats.hit_rate(),
                   static_cast<double>(stats.hits) /
                       static_cast<double>(stats.hits + stats.waits +
                                           stats.misses));
}

TEST(ServiceCycleCache, ResidentFlagSeparatesEntries) {
  ServiceCycleCache cache(4);
  const ServiceCycleCache::Key cold{1, 2, 3, false};
  const ServiceCycleCache::Key warm{1, 2, 3, true};

  EXPECT_FALSE(cache.acquire(cold).has_value());
  cache.publish(cold, fake_result(100));
  EXPECT_FALSE(cache.acquire(warm).has_value());  // distinct key: miss
  cache.publish(warm, fake_result(80));

  EXPECT_EQ(cache.acquire(cold)->total_cycles, 100U);
  EXPECT_EQ(cache.acquire(warm)->total_cycles, 80U);
}

TEST(ServiceCycleCache, EvictsLeastRecentlyUsed) {
  ServiceCycleCache cache(2);
  const ServiceCycleCache::Key a{1, 0, 1, false};
  const ServiceCycleCache::Key b{2, 0, 1, false};
  const ServiceCycleCache::Key c{3, 0, 1, false};

  EXPECT_FALSE(cache.acquire(a).has_value());
  cache.publish(a, fake_result(1));
  EXPECT_FALSE(cache.acquire(b).has_value());
  cache.publish(b, fake_result(2));
  // Touch `a` so `b` is the LRU entry when `c` overflows the cache.
  EXPECT_TRUE(cache.acquire(a).has_value());
  EXPECT_FALSE(cache.acquire(c).has_value());
  cache.publish(c, fake_result(3));

  EXPECT_EQ(cache.stats().entries, 2U);
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_TRUE(cache.acquire(a).has_value());   // survivor
  EXPECT_TRUE(cache.acquire(c).has_value());   // newest
  EXPECT_FALSE(cache.acquire(b).has_value());  // evicted: miss again
  cache.abandon(b);
}

TEST(ServiceCycleCache, AcquireWaitsForInFlightPublish) {
  ServiceCycleCache cache(256);
  // The waiter can win the race and see the published entry without ever
  // blocking; retry on fresh keys until one demonstrably waited.
  for (int attempt = 0; attempt < 100 && cache.stats().waits == 0;
       ++attempt) {
    const ServiceCycleCache::Key key{
        9, static_cast<std::uint64_t>(attempt), 1, true};
    ASSERT_FALSE(cache.acquire(key).has_value());  // this thread owns it

    std::optional<RunResult> seen;
    std::thread waiter([&] { seen = cache.acquire(key); });
    // Give the waiter a moment to block on the in-flight computation;
    // publishing then wakes it with the result (a hit that waited).
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    cache.publish(key, fake_result(55));
    waiter.join();

    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(seen->total_cycles, 55U);
  }
  EXPECT_GE(cache.stats().waits, 1U);
}

TEST(ServiceCycleCache, AbandonHandsComputationToWaiter) {
  ServiceCycleCache cache(4);
  const ServiceCycleCache::Key key{9, 9, 1, false};
  ASSERT_FALSE(cache.acquire(key).has_value());

  std::optional<RunResult> seen{fake_result(0)};  // sentinel non-empty
  std::thread waiter([&] { seen = cache.acquire(key); });
  cache.abandon(key);
  waiter.join();

  // The waiter took over the computation: its acquire was a miss.
  EXPECT_FALSE(seen.has_value());
  cache.publish(key, fake_result(7));
  EXPECT_EQ(cache.acquire(key)->total_cycles, 7U);
}

TEST(ServiceCycleCache, ReplayIsBitIdenticalToSimulation) {
  const Accelerator device(AccelConfig{}, tiny_program());
  const auto stories = tiny_stories(5);

  ServiceCycleCache cache(8);
  RunOptions options;
  options.cycle_cache = &cache;

  const RunResult simulated = device.run(stories, options);
  const RunResult replayed = device.run(stories, options);

  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(cache.stats().misses, 1U);

  EXPECT_EQ(replayed.total_cycles, simulated.total_cycles);
  EXPECT_DOUBLE_EQ(replayed.seconds, simulated.seconds);
  EXPECT_EQ(replayed.stream_words, simulated.stream_words);
  EXPECT_EQ(replayed.link_active_cycles, simulated.link_active_cycles);
  ASSERT_EQ(replayed.stories.size(), simulated.stories.size());
  for (std::size_t i = 0; i < simulated.stories.size(); ++i) {
    EXPECT_EQ(replayed.stories[i].prediction, simulated.stories[i].prediction);
    EXPECT_EQ(replayed.stories[i].finish_cycle,
              simulated.stories[i].finish_cycle);
    EXPECT_EQ(replayed.stories[i].output_probes,
              simulated.stories[i].output_probes);
    EXPECT_EQ(replayed.stories[i].early_exit, simulated.stories[i].early_exit);
  }
  ASSERT_EQ(replayed.modules.size(), simulated.modules.size());
  for (std::size_t i = 0; i < simulated.modules.size(); ++i) {
    EXPECT_EQ(replayed.modules[i].name, simulated.modules[i].name);
    EXPECT_EQ(replayed.modules[i].stats.busy_cycles,
              simulated.modules[i].stats.busy_cycles);
  }
  EXPECT_EQ(replayed.fifo_in_stats.pushes, simulated.fifo_in_stats.pushes);
  EXPECT_EQ(replayed.fifo_out_stats.pops, simulated.fifo_out_stats.pops);

  // A plain uncached run agrees too: caching never changes results.
  const RunResult uncached = device.run(stories);
  EXPECT_EQ(uncached.total_cycles, simulated.total_cycles);
}

TEST(ServiceCycleCache, WarmAndColdRunsCacheSeparately) {
  const Accelerator device(AccelConfig{}, tiny_program());
  const auto stories = tiny_stories(3);

  ServiceCycleCache cache(8);
  RunOptions cold;
  cold.cycle_cache = &cache;
  RunOptions warm = cold;
  warm.model_resident = true;

  const RunResult cold_run = device.run(stories, cold);
  const RunResult warm_run = device.run(stories, warm);
  EXPECT_LT(warm_run.total_cycles, cold_run.total_cycles);
  EXPECT_EQ(cache.stats().misses, 2U);  // distinct keys, no false sharing
  EXPECT_EQ(device.run(stories, warm).total_cycles, warm_run.total_cycles);
  EXPECT_EQ(cache.stats().hits, 1U);
}

TEST(ServiceCycleCache, DifferentProgramsDoNotCollide) {
  const Accelerator first(AccelConfig{}, tiny_program(7));
  const Accelerator second(AccelConfig{}, tiny_program(8));
  EXPECT_NE(first.fingerprint(), second.fingerprint());

  ServiceCycleCache cache(8);
  RunOptions options;
  options.cycle_cache = &cache;
  const auto stories = tiny_stories(3);
  (void)first.run(stories, options);
  (void)second.run(stories, options);
  EXPECT_EQ(cache.stats().misses, 2U);
  EXPECT_EQ(cache.stats().hits, 0U);
}

TEST(ServiceCycleCache, CostAwareEvictionDropsCheapestToRecompute) {
  ServiceCycleCache cache(2);
  cache.set_eviction_policy(serve::EvictionPolicyKind::kCostAware);

  const ServiceCycleCache::Key expensive{1, 0, 1, false};
  const ServiceCycleCache::Key cheap{2, 0, 1, false};
  const ServiceCycleCache::Key next{3, 0, 1, false};
  EXPECT_FALSE(cache.acquire(expensive).has_value());
  cache.publish(expensive, fake_result(9'000));
  EXPECT_FALSE(cache.acquire(cheap).has_value());
  cache.publish(cheap, fake_result(10));
  // Touch the cheap entry so plain LRU would have evicted `expensive`;
  // the cost-aware policy instead drops the entry cheapest to re-run.
  EXPECT_TRUE(cache.acquire(cheap).has_value());
  EXPECT_FALSE(cache.acquire(next).has_value());
  cache.publish(next, fake_result(5'000));

  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_TRUE(cache.acquire(expensive).has_value());  // survivor
  EXPECT_TRUE(cache.acquire(next).has_value());
  EXPECT_FALSE(cache.acquire(cheap).has_value());  // evicted: cheapest
  cache.abandon(cheap);
}

// ------------------------------------- cost-aware victim: (cycles, touch)

TEST(EvictionPolicy, CostAwareEvictsCheapestReload) {
  ServiceCycleCache cache(3);
  cache.set_eviction_policy(serve::EvictionPolicyKind::kCostAware);
  const ServiceCycleCache::Key stale{1, 0, 1, false};
  const ServiceCycleCache::Key cheap{2, 0, 1, false};
  const ServiceCycleCache::Key costly{3, 0, 1, false};
  const ServiceCycleCache::Key next{4, 0, 1, false};
  EXPECT_FALSE(cache.acquire(stale).has_value());
  cache.publish(stale, fake_result(5'000));
  EXPECT_FALSE(cache.acquire(cheap).has_value());
  cache.publish(cheap, fake_result(200));
  EXPECT_FALSE(cache.acquire(costly).has_value());
  cache.publish(costly, fake_result(90'000));
  // Touch order is now stale, costly, cheap: the cheapest entry is the
  // most recently touched, and it still goes.
  EXPECT_TRUE(cache.acquire(costly).has_value());
  EXPECT_TRUE(cache.acquire(cheap).has_value());
  EXPECT_FALSE(cache.acquire(next).has_value());
  cache.publish(next, fake_result(1'000));

  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_TRUE(cache.acquire(stale).has_value());
  EXPECT_TRUE(cache.acquire(costly).has_value());
  EXPECT_TRUE(cache.acquire(next).has_value());
  EXPECT_FALSE(cache.acquire(cheap).has_value());  // evicted: cheapest
  cache.abandon(cheap);
}

TEST(EvictionPolicy, CostAwareTieFallsToLru) {
  // Equal simulated cycles tie on cost: the least recently touched entry
  // goes, not the first inserted.
  ServiceCycleCache cache(2);
  cache.set_eviction_policy(serve::EvictionPolicyKind::kCostAware);
  const ServiceCycleCache::Key first{4, 0, 1, false};
  const ServiceCycleCache::Key second{5, 0, 1, false};
  const ServiceCycleCache::Key next{6, 0, 1, false};
  EXPECT_FALSE(cache.acquire(first).has_value());
  cache.publish(first, fake_result(100));
  EXPECT_FALSE(cache.acquire(second).has_value());
  cache.publish(second, fake_result(100));
  EXPECT_TRUE(cache.acquire(first).has_value());  // `second` is now coldest
  EXPECT_FALSE(cache.acquire(next).has_value());
  cache.publish(next, fake_result(5'000));

  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_TRUE(cache.acquire(first).has_value());
  EXPECT_FALSE(cache.acquire(second).has_value());  // evicted: least recent
  cache.abandon(second);
}

/// The linear victim scan the victim order replaced: LRU drops the least
/// recently touched entry, cost-aware the one with the fewest cycles,
/// equal cycles falling to the least recently touched.
class ScanCache {
 public:
  explicit ScanCache(std::size_t capacity) : capacity_(capacity) {}

  serve::EvictionPolicyKind kind = serve::EvictionPolicyKind::kLru;

  /// Hit (and touch) when `id` is resident.
  bool acquire(std::uint64_t id) {
    for (Entry& entry : entries_) {
      if (entry.id == id) {
        entry.touch = ++clock_;
        return true;
      }
    }
    return false;
  }

  /// Inserts `id` and returns the victim, if the insert overfilled.
  std::optional<std::uint64_t> publish(std::uint64_t id, sim::Cycle cycles) {
    entries_.push_back({id, cycles, ++clock_});
    if (entries_.size() <= capacity_) {
      return std::nullopt;
    }
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const bool first =
          kind == serve::EvictionPolicyKind::kLru
              ? it->touch < victim->touch
              : std::tie(it->cycles, it->touch) <
                    std::tie(victim->cycles, victim->touch);
      if (first) {
        victim = it;
      }
    }
    const std::uint64_t gone = victim->id;
    entries_.erase(victim);
    return gone;
  }

 private:
  struct Entry {
    std::uint64_t id = 0;
    sim::Cycle cycles = 0;
    std::uint64_t touch = 0;
  };
  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
};

TEST(EvictionPolicy, IndexedVictimMatchesLinearScanUnderSeededTraffic) {
  // Random lookups over 24 keys into 6 entries; a miss publishes one of
  // three cycle counts (so most cost comparisons tie) or now and then
  // abandons. The kind flips now and then, so a switch must re-rank every
  // resident entry. After every eviction the scan's victim must be the
  // entry gone: a lookup of it misses, and touches nothing.
  const auto key_of = [](std::uint64_t id) {
    return ServiceCycleCache::Key{id, 0, 1, false};
  };
  for (const auto first_kind : {serve::EvictionPolicyKind::kLru,
                                serve::EvictionPolicyKind::kCostAware}) {
    SCOPED_TRACE(first_kind == serve::EvictionPolicyKind::kLru ? "lru first"
                                                               : "cost first");
    ServiceCycleCache cache(6);
    ScanCache scan(6);
    scan.kind = first_kind;
    cache.set_eviction_policy(first_kind);
    numeric::Rng rng(2019);
    std::uint64_t evictions = 0;
    for (std::size_t step = 0; step < 6000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (rng.index(400) == 0) {
        scan.kind = scan.kind == serve::EvictionPolicyKind::kLru
                        ? serve::EvictionPolicyKind::kCostAware
                        : serve::EvictionPolicyKind::kLru;
        cache.set_eviction_policy(scan.kind);
      }
      const std::uint64_t id = rng.index(24);
      const bool hit = cache.acquire(key_of(id)).has_value();
      ASSERT_EQ(hit, scan.acquire(id));
      if (hit) {
        continue;
      }
      if (rng.index(10) == 0) {
        cache.abandon(key_of(id));
        continue;
      }
      const sim::Cycle cycles = 100 * (1 + rng.index(3));
      cache.publish(key_of(id), fake_result(cycles));
      const std::optional<std::uint64_t> victim = scan.publish(id, cycles);
      evictions += victim ? 1 : 0;
      ASSERT_EQ(cache.stats().evictions, evictions);
      if (victim) {
        ASSERT_FALSE(cache.acquire(key_of(*victim)).has_value())
            << "the cache kept the scan's victim " << *victim;
        cache.abandon(key_of(*victim));
      }
    }
    EXPECT_GT(evictions, 2000U);
  }
}

// ------------------------------------------------------------- sharding

TEST(ServiceCycleCacheSharded, StatTotalsAreInvariantAcrossSegmentCounts) {
  // One deterministic single-threaded sequence replayed against caches
  // sharded 1/2/4/8 ways: segmentation moves entries between locks, but
  // the summed hit/miss/insertion accounting must not move. Capacity is
  // sized so even the most skewed hash split cannot overflow a single
  // segment (capacity/segments = 64 >= 48 entries): per-segment LRU
  // means a tight cache CAN evict earlier when sharded, which is a
  // capacity artifact, not an accounting difference.
  const auto run_sequence = [](std::size_t segments) {
    ServiceCycleCache cache(512, nullptr, segments);
    EXPECT_EQ(cache.segments(), segments);
    for (std::uint64_t k = 0; k < 48; ++k) {
      const ServiceCycleCache::Key key{k * 7 + 1, k * 13 + 2, 4, k % 2 == 0};
      EXPECT_FALSE(cache.acquire(key).has_value());
      cache.publish(key, fake_result(200));
    }
    for (std::uint64_t k = 0; k < 48; ++k) {
      const ServiceCycleCache::Key key{k * 7 + 1, k * 13 + 2, 4, k % 2 == 0};
      EXPECT_TRUE(cache.acquire(key).has_value()) << "key " << k;
    }
    return cache.stats();
  };

  const ServiceCycleCacheStats one = run_sequence(1);
  EXPECT_EQ(one.hits, 48U);
  EXPECT_EQ(one.misses, 48U);
  EXPECT_EQ(one.waits, 0U);
  EXPECT_EQ(one.insertions, 48U);
  EXPECT_EQ(one.entries, 48U);
  for (const std::size_t segments : {2u, 4u, 8u}) {
    const ServiceCycleCacheStats sharded = run_sequence(segments);
    EXPECT_EQ(sharded.hits + sharded.waits + sharded.misses,
              one.hits + one.waits + one.misses)
        << segments << " segments";
    EXPECT_EQ(sharded.hits, one.hits) << segments << " segments";
    EXPECT_EQ(sharded.misses, one.misses) << segments << " segments";
    EXPECT_EQ(sharded.insertions, one.insertions) << segments << " segments";
    EXPECT_EQ(sharded.entries, one.entries) << segments << " segments";
  }
}

TEST(ServiceCycleCacheSharded, ConcurrentHammerKeepsLedgerConsistent) {
  // TSan coverage for the segment locks and the in-flight rendezvous:
  // four threads over an 8-segment cache, each walking the 256 keys 16
  // apart from the next, so the same keys and segments see hits, misses,
  // publishes and waits concurrently.
  // The second input installs cost-aware eviction by kind (one policy
  // per segment) at a capacity the 256 distinct keys overflow, so
  // victim choice also runs under concurrently held segment locks.
  // Beside the batches every thread walks the same 64 story entries from
  // its own offset, so several threads miss, compute and publish one
  // story at once, which story entries allow without a rendezvous.
  struct Input {
    std::size_t capacity;
    bool cost_aware;
  };
  for (const Input input : {Input{256, false}, Input{64, true}}) {
    SCOPED_TRACE("capacity " + std::to_string(input.capacity));
    ServiceCycleCache cache(input.capacity, nullptr, 8);
    if (input.cost_aware) {
      cache.set_eviction_policy(serve::EvictionPolicyKind::kCostAware);
    }
    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kKeys = 64;
    constexpr int kRounds = 40;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (std::uint64_t k = 0; k < kKeys; ++k) {
            const std::uint64_t j =
                (k + 16 * t + kKeys * static_cast<std::uint64_t>(round)) %
                (kThreads * kKeys);
            const ServiceCycleCache::Key key{j % kKeys + 1, j / kKeys + 1, 2,
                                             false};
            const std::optional<RunResult> seen = cache.acquire(key);
            if (seen.has_value()) {
              EXPECT_EQ(seen->total_cycles, 1'000 + key.program_fingerprint);
            } else {
              cache.publish(key,
                            fake_result(1'000 + key.program_fingerprint));
            }
            const std::uint64_t s = (k + t * 16) % kKeys;
            const ServiceCycleCache::StoryKey story{s % 8 + 1, s + 1};
            const StoryValues values{static_cast<std::int32_t>(s), s % 2 == 0,
                                     3 * s};
            if (const std::optional<StoryValues> memo =
                    cache.find_story(story)) {
              EXPECT_EQ(*memo, values);
            } else {
              cache.publish_story(story, values);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    const ServiceCycleCacheStats stats = cache.stats();
    // Every lookup landed in exactly one bucket.
    EXPECT_EQ(stats.hits + stats.waits + stats.misses,
              kThreads * kRounds * kKeys);
    EXPECT_LE(stats.entries, input.capacity);
    if (input.cost_aware) {
      EXPECT_GT(stats.evictions, 0U);
    }
    // Every story lookup is one hit or one miss; each key missed first,
    // and on each thread at most once.
    EXPECT_EQ(stats.story_hits + stats.story_misses,
              kThreads * kRounds * kKeys);
    EXPECT_GE(stats.story_misses, kKeys);
    EXPECT_LE(stats.story_misses, kThreads * kKeys);
  }
}

}  // namespace
}  // namespace mann::accel
