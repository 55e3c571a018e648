// Service-cycle memoization for warm serving traffic.
//
// Accelerator::run is a pure function of (config, program, stories,
// model_resident): the cycle-level simulation always lands on the same
// timing and outputs for the same inputs. Serving traffic walks a fixed
// corpus round-robin, so the same batch contents recur constantly once
// the pool is warm — and re-simulating them is where nearly all host
// wall-clock goes. ServiceCycleCache memoizes complete RunResults keyed
// on (program fingerprint, story digest, resident flag) so a repeated
// batch replays its cached timing/output instead of re-simulating;
// replay is bit-identical because the key covers every input that can
// influence the simulation.
//
// The cache is shared by the serving scheduler's host workers and the
// simulation thread, so it is internally locked and additionally acts as
// a rendezvous for in-flight computations: acquire() on a key that
// another thread is currently simulating blocks until that thread
// publishes (or abandons), which both deduplicates speculative work and
// lets the simulation thread pick up a prefetched result the moment it
// is ready.
//
// Beside the batch entries the cache memoizes each story's values (the
// value pass, accel/datapath.hpp) under (values fingerprint, story
// digest): a batch that misses recomputes only the stories no earlier
// batch has seen on a device with the same program, sparse_read_slots
// and ITH setting, whatever its clock, link or timing. Two threads that
// compute the same story compute the same values, so story entries need
// no in-flight rendezvous. At most kStoryCapacity of them are kept, each
// segment its share; past that a segment memoizes no new story.
//
// Capacity eviction takes the front of one ordered index per segment.
// An entry's rank is (simulated cycles under
// set_eviction_policy(serve::EvictionPolicyKind::kCostAware), or 0 under
// kLru, then its touch clock). Every publish and every hit takes a fresh
// touch clock and re-keys the entry through its node handle, so the
// front is the least recently used entry under kLru and the one
// cheapest to recompute under kCostAware (equal cycles fall to the least
// recently touched): O(log n) per publish, hit and eviction.
//
// Sharding: at higher host-thread counts (cluster fleet threads, many
// workers) a single mutex serializes every lookup. The cache can be
// split into S independently-locked segments selected by the key hash
// (which mixes the story digest, so concurrent distinct batches spread
// across segments). Each segment keeps its own victim order, in-flight
// rendezvous and stats; stats() sums the segments. The
// per-lookup outcome (hit/wait/miss) depends only on which keys are
// resident, so hits+waits+misses are invariant across segment counts.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/datapath.hpp"
#include "data/types.hpp"
#include "obs/metrics.hpp"
#include "serve/eviction.hpp"

namespace mann::accel {

/// Hit/miss/eviction counters, exported into the ServingReport. Every
/// lookup lands in exactly one of hits/waits/misses: a lookup that
/// blocked on another thread's in-flight simulation is a *wait*, not a
/// hit — it avoided duplicate work but paid miss-shaped latency, and
/// counting it as a hit used to inflate the reported hit rate.
struct ServiceCycleCacheStats {
  std::uint64_t hits = 0;         ///< immediately resident
  std::uint64_t misses = 0;       ///< lookups that had to simulate
  std::uint64_t waits = 0;        ///< resolved by an in-flight run we blocked on
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;        ///< resident entries at sample time
  /// Story-entry lookups, apart from the batch lookups above: values
  /// found in the memo, and values the value pass had to compute.
  std::uint64_t story_hits = 0;
  std::uint64_t story_misses = 0;

  /// True hits over all lookups (hits + waits + misses).
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + waits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Word-at-a-time FNV-1a — the one hash primitive behind the story
/// digest, the key hash and the device fingerprint, kept together so the
/// three stay a matched set (they jointly form the cache key).
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
[[nodiscard]] inline std::uint64_t fnv1a_mix(std::uint64_t h,
                                             std::uint64_t word) noexcept {
  return (h ^ word) * 0x100000001b3ULL;
}

/// FNV-1a digest of a workload's stories (shapes and contents, never
/// addresses), in order. Two workloads with the same digest and count are
/// treated as the same workload, wherever their stories live. The same
/// pass writes each story's own digest (the digest of the one-story
/// workload) into `story_digests[i]`, for as many stories as it has
/// slots. The batch digest runs on across the stories instead of folding
/// theirs: folding would move each batch to another segment of a sharded
/// cache, and with it which entries a full segment evicts.
[[nodiscard]] std::uint64_t digest_stories(
    std::span<const data::EncodedStory* const> stories,
    std::span<std::uint64_t> story_digests = {}) noexcept;

class ServiceCycleCache {
 public:
  struct Key {
    std::uint64_t program_fingerprint = 0;  ///< config + program digest
    std::uint64_t stories_digest = 0;
    std::size_t story_count = 0;
    bool model_resident = false;

    [[nodiscard]] bool operator==(const Key&) const noexcept = default;
  };

  /// One story's values under one value pass.
  struct StoryKey {
    /// Digest of what the value pass reads: the program,
    /// sparse_read_slots and ITH (not the clock, link or timing).
    std::uint64_t values_fingerprint = 0;
    std::uint64_t story_digest = 0;

    [[nodiscard]] bool operator==(const StoryKey&) const noexcept = default;
  };

  /// Story entries kept at most, across all segments: about 1 MB. A
  /// serving corpus of 20 tasks' 200-story test splits is 4,000.
  static constexpr std::size_t kStoryCapacity = std::size_t{1} << 14;

  /// `capacity` bounds resident entries; overflow evicts by the kind
  /// set_eviction_policy chose (kLru until it is called). Throws
  /// std::invalid_argument when `capacity` or `segments` is 0. When
  /// `metrics` is set the cache mirrors its stats into
  /// "accel.cycle_cache.*" counters (non-owning; may be null).
  /// `segments` splits the cache into that many independently-locked
  /// shards (key-hash selected; capacity divides evenly, rounded up).
  /// With more than one segment and a registry, per-segment
  /// "accel.cycle_cache.segment.<i>.{hits,waits,misses,contended}"
  /// counters expose where lookups land and which locks are fought over.
  explicit ServiceCycleCache(std::size_t capacity = 1024,
                             obs::MetricsRegistry* metrics = nullptr,
                             std::size_t segments = 1);

  ServiceCycleCache(const ServiceCycleCache&) = delete;
  ServiceCycleCache& operator=(const ServiceCycleCache&) = delete;

  /// Looks up `key`. On a hit returns a copy of the cached result. On a
  /// miss the caller becomes the key's owner and MUST later call
  /// publish() (or abandon() on failure). If another thread owns the key,
  /// blocks until it publishes or abandons, then resolves accordingly.
  /// `outcome`, when non-null, reports which of those paths was taken.
  [[nodiscard]] std::optional<RunResult> acquire(
      const Key& key, CacheOutcome* outcome = nullptr);

  /// Inserts the owned key's result (evicting beyond capacity) and wakes
  /// any acquire() blocked on it.
  void publish(const Key& key, const RunResult& result);

  /// Releases ownership without a result (the simulation threw); a
  /// blocked acquire() takes over the computation.
  void abandon(const Key& key) noexcept;

  /// The memoized values of the story under `key`, counted as a story
  /// hit, or nullopt, counted as a story miss.
  [[nodiscard]] std::optional<StoryValues> find_story(const StoryKey& key);

  /// Memoizes `values` under `key`, unless the key's segment already
  /// holds its share of kStoryCapacity or the key.
  void publish_story(const StoryKey& key, const StoryValues& values);

  /// Chooses how capacity eviction picks its victim in every segment:
  /// kLru (the default) or kCostAware (see the header comment). A change
  /// of kind re-ranks every resident entry, so it applies from the next
  /// eviction on.
  void set_eviction_policy(serve::EvictionPolicyKind kind) noexcept;

  [[nodiscard]] ServiceCycleCacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t segments() const noexcept {
    return segments_.size();
  }

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept;
    [[nodiscard]] std::size_t operator()(const StoryKey& k) const noexcept;
  };
  struct Entry {
    RunResult result;
    std::uint64_t touch_seq = 0;  ///< fresh on every publish and hit
  };
  /// Victim order, front first (see the header comment): re-simulating
  /// is the reload, so under kCostAware fewer cycles go first.
  using Rank = std::pair<sim::Cycle, std::uint64_t>;

  /// One independently-locked shard: its own entries, victim order,
  /// in-flight rendezvous, recency clock and stats. Never crosses into
  /// another segment, so two threads on different segments never contend.
  struct Segment {
    mutable std::mutex mutex;
    std::condition_variable ready;
    std::unordered_map<Key, Entry, KeyHash> index;
    /// Every resident key by rank; begin() is the next victim.
    std::map<Rank, Key> order;
    serve::EvictionPolicyKind kind = serve::EvictionPolicyKind::kLru;
    std::unordered_set<Key, KeyHash> in_flight;
    std::unordered_map<StoryKey, StoryValues, KeyHash> stories;
    ServiceCycleCacheStats stats;
    std::uint64_t touch_counter = 0;
    // Mirrored per-segment obs instruments (null without a registry or
    // for a single-segment cache).
    obs::Counter* obs_hits = nullptr;
    obs::Counter* obs_waits = nullptr;
    obs::Counter* obs_misses = nullptr;
    obs::Counter* obs_contended = nullptr;  ///< lock acquisitions that blocked
  };

  [[nodiscard]] static Rank rank(const Segment& segment,
                                 const Entry& entry) noexcept {
    return {segment.kind == serve::EvictionPolicyKind::kCostAware
                ? entry.result.total_cycles
                : 0,
            entry.touch_seq};
  }

  template <typename K>
  [[nodiscard]] Segment& segment_for(const K& key) noexcept {
    // KeyHash mixes the story digest, so concurrent distinct batches
    // spread across segments instead of queueing on one mutex.
    return *segments_[KeyHash{}(key) % segments_.size()];
  }
  /// Locks `segment.mutex`, counting the acquisition as contended when
  /// another thread already holds it.
  [[nodiscard]] std::unique_lock<std::mutex> lock_segment(Segment& segment);
  /// Evicts from the front of the victim order past the segment's share
  /// of capacity; the segment lock must be held.
  void evict_over_capacity_locked(Segment& segment);

  std::size_t capacity_;
  std::size_t segment_capacity_;
  std::size_t segment_story_capacity_;
  std::vector<std::unique_ptr<Segment>> segments_;
  /// Resident entries across all segments, maintained atomically so the
  /// entries gauge never needs a cross-segment lock sweep.
  std::atomic<std::int64_t> entry_count_{0};
  // Mirrored aggregate obs instruments (null without a registry); shared
  // across segments — counters are atomic.
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_waits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_insertions_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Gauge* obs_entries_ = nullptr;
};

}  // namespace mann::accel
