#include "accel/service_cycle_cache.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace mann::accel {

std::uint64_t digest_stories(
    std::span<const data::EncodedStory* const> stories,
    std::span<std::uint64_t> story_digests) noexcept {
  // Digests index streams, not bytes: one multiply per token for the
  // workload and one for its story.
  std::uint64_t h = kFnv1aOffset;
  for (std::size_t i = 0; i < stories.size(); ++i) {
    const data::EncodedStory& story = *stories[i];
    std::uint64_t s = kFnv1aOffset;
    const auto mix = [&](std::uint64_t word) {
      h = fnv1a_mix(h, word);
      s = fnv1a_mix(s, word);
    };
    mix(story.context.size());
    for (const std::vector<std::int32_t>& sentence : story.context) {
      mix(sentence.size());
      for (const std::int32_t word : sentence) {
        mix(static_cast<std::uint64_t>(word));
      }
    }
    mix(story.question.size());
    for (const std::int32_t word : story.question) {
      mix(static_cast<std::uint64_t>(word));
    }
    mix(static_cast<std::uint64_t>(story.answer));
    if (i < story_digests.size()) {
      story_digests[i] = s;
    }
  }
  return h;
}

std::size_t ServiceCycleCache::KeyHash::operator()(
    const Key& k) const noexcept {
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_mix(h, k.program_fingerprint);
  h = fnv1a_mix(h, k.stories_digest);
  h = fnv1a_mix(h, k.story_count);
  h = fnv1a_mix(h, k.model_resident ? 1 : 0);
  return static_cast<std::size_t>(h);
}

std::size_t ServiceCycleCache::KeyHash::operator()(
    const StoryKey& k) const noexcept {
  return static_cast<std::size_t>(
      fnv1a_mix(fnv1a_mix(kFnv1aOffset, k.values_fingerprint),
                k.story_digest));
}

ServiceCycleCache::ServiceCycleCache(std::size_t capacity,
                                     obs::MetricsRegistry* metrics,
                                     std::size_t segments)
    : capacity_(capacity),
      obs_hits_(obs::counter(metrics, "accel.cycle_cache.hits")),
      obs_waits_(obs::counter(metrics, "accel.cycle_cache.waits")),
      obs_misses_(obs::counter(metrics, "accel.cycle_cache.misses")),
      obs_insertions_(obs::counter(metrics, "accel.cycle_cache.insertions")),
      obs_evictions_(obs::counter(metrics, "accel.cycle_cache.evictions")),
      obs_entries_(obs::gauge(metrics, "accel.cycle_cache.entries")) {
  if (capacity_ == 0) {
    throw std::invalid_argument("ServiceCycleCache: capacity must be > 0");
  }
  if (segments == 0) {
    throw std::invalid_argument("ServiceCycleCache: segments must be > 0");
  }
  segment_capacity_ = (capacity_ + segments - 1) / segments;
  segment_story_capacity_ = (kStoryCapacity + segments - 1) / segments;
  segments_.reserve(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    auto segment = std::make_unique<Segment>();
    if (segments > 1 && metrics != nullptr) {
      const std::string prefix =
          "accel.cycle_cache.segment." + std::to_string(i) + ".";
      segment->obs_hits = obs::counter(metrics, prefix + "hits");
      segment->obs_waits = obs::counter(metrics, prefix + "waits");
      segment->obs_misses = obs::counter(metrics, prefix + "misses");
      segment->obs_contended = obs::counter(metrics, prefix + "contended");
    }
    segments_.push_back(std::move(segment));
  }
}

std::unique_lock<std::mutex> ServiceCycleCache::lock_segment(
    Segment& segment) {
  std::unique_lock lock(segment.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Host-domain contention signal only — never feeds a simulated
    // number, so the counter may vary run to run.
    obs::add(segment.obs_contended);
    lock.lock();
  }
  return lock;
}

std::optional<RunResult> ServiceCycleCache::acquire(const Key& key,
                                                    CacheOutcome* outcome) {
  Segment& segment = segment_for(key);
  std::unique_lock lock = lock_segment(segment);
  bool waited = false;
  for (;;) {
    if (const auto it = segment.index.find(key); it != segment.index.end()) {
      // Touch: a fresh clock, re-keyed in the victim order through its
      // node handle, which allocates nothing.
      Entry& entry = it->second;
      auto node = segment.order.extract(rank(segment, entry));
      entry.touch_seq = ++segment.touch_counter;
      node.key() = rank(segment, entry);
      segment.order.insert(std::move(node));
      // A lookup resolved by someone else's in-flight simulation is a
      // wait, not a hit: it deduplicated work but paid miss-shaped
      // latency, and exactly one of hits/waits/misses counts per lookup.
      if (waited) {
        ++segment.stats.waits;
        obs::add(obs_waits_);
        obs::add(segment.obs_waits);
      } else {
        ++segment.stats.hits;
        obs::add(obs_hits_);
        obs::add(segment.obs_hits);
      }
      if (outcome != nullptr) {
        *outcome = waited ? CacheOutcome::kWait : CacheOutcome::kHit;
      }
      return entry.result;
    }
    if (!segment.in_flight.contains(key)) {
      segment.in_flight.insert(key);
      ++segment.stats.misses;
      obs::add(obs_misses_);
      obs::add(segment.obs_misses);
      if (outcome != nullptr) {
        *outcome = CacheOutcome::kMiss;
      }
      return std::nullopt;  // caller owns the computation
    }
    waited = true;
    segment.ready.wait(lock, [&] {
      return segment.index.contains(key) || !segment.in_flight.contains(key);
    });
  }
}

void ServiceCycleCache::evict_over_capacity_locked(Segment& segment) {
  while (segment.index.size() > segment_capacity_) {
    const auto victim = segment.order.begin();
    segment.index.erase(victim->second);
    segment.order.erase(victim);
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    ++segment.stats.evictions;
    obs::add(obs_evictions_);
  }
}

void ServiceCycleCache::publish(const Key& key, const RunResult& result) {
  Segment& segment = segment_for(key);
  {
    std::unique_lock lock = lock_segment(segment);
    segment.in_flight.erase(key);
    if (!segment.index.contains(key)) {
      const Entry& entry =
          segment.index.emplace(key, Entry{result, ++segment.touch_counter})
              .first->second;
      segment.order.emplace(rank(segment, entry), key);
      entry_count_.fetch_add(1, std::memory_order_relaxed);
      ++segment.stats.insertions;
      obs::add(obs_insertions_);
      evict_over_capacity_locked(segment);
      obs::set(obs_entries_, entry_count_.load(std::memory_order_relaxed));
    }
  }
  segment.ready.notify_all();
}

void ServiceCycleCache::abandon(const Key& key) noexcept {
  Segment& segment = segment_for(key);
  {
    std::lock_guard lock(segment.mutex);
    segment.in_flight.erase(key);
  }
  segment.ready.notify_all();
}

std::optional<StoryValues> ServiceCycleCache::find_story(
    const StoryKey& key) {
  Segment& segment = segment_for(key);
  std::unique_lock lock = lock_segment(segment);
  if (const auto it = segment.stories.find(key);
      it != segment.stories.end()) {
    ++segment.stats.story_hits;
    return it->second;
  }
  ++segment.stats.story_misses;
  return std::nullopt;
}

void ServiceCycleCache::publish_story(const StoryKey& key,
                                      const StoryValues& values) {
  Segment& segment = segment_for(key);
  std::unique_lock lock = lock_segment(segment);
  if (segment.stories.size() < segment_story_capacity_) {
    segment.stories.emplace(key, values);
  }
}

void ServiceCycleCache::set_eviction_policy(
    serve::EvictionPolicyKind kind) noexcept {
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    if (segment->kind == kind) {
      continue;
    }
    segment->kind = kind;
    // Re-rank every entry through its node handle, which allocates
    // nothing; the touch clocks keep their order.
    std::map<Rank, Key> old;
    old.swap(segment->order);
    while (!old.empty()) {
      auto node = old.extract(old.begin());
      node.key() = rank(*segment, segment->index.find(node.mapped())->second);
      segment->order.insert(std::move(node));
    }
  }
}

ServiceCycleCacheStats ServiceCycleCache::stats() const {
  ServiceCycleCacheStats total;
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    total.hits += segment->stats.hits;
    total.misses += segment->stats.misses;
    total.waits += segment->stats.waits;
    total.insertions += segment->stats.insertions;
    total.evictions += segment->stats.evictions;
    total.entries += segment->index.size();
    total.story_hits += segment->stats.story_hits;
    total.story_misses += segment->stats.story_misses;
  }
  return total;
}

}  // namespace mann::accel
