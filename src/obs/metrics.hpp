// mann::obs metrics: named counters, gauges and log2-bucketed histograms
// for the serving stack.
//
// Design constraints, in order:
//   1. Null sinks cost one well-predicted branch. Components hold
//      nullable instrument pointers and record through the null-safe
//      free helpers below, so a run without a registry (every timed
//      benchmark rep) pays one null check per record and nothing else.
//   2. Lock-free hot path with a registry. Instruments are plain relaxed
//      atomics — a counter add is one uncontended fetch_add, a histogram
//      observation a handful. The registry's mutex is taken only at
//      instrument registration (cold: once per name at startup) and at
//      snapshot time (cold: end of run); instrument addresses are stable
//      for the registry's lifetime (deque storage), so components cache
//      raw pointers and never touch the registry again.
//
// Instruments are process-agnostic; the serving stack registers names
// like "serve.admission.shed.quota" or "accel.cycle_cache.hits" and the
// trace writer exports a snapshot beside the trace events.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mann::obs {

/// Histogram buckets: bucket i counts observations v with bit_width(v)
/// == i, i.e. bucket 0 holds v == 0 and bucket i holds [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 65;

/// Point-in-time copy of a histogram.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper bound of the bucket where the cumulative count crosses `q`
  /// (0..1]; a log2-bucket estimate, exact only at bucket edges.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      seen += buckets[b];
      if (static_cast<double>(seen) >= target) {
        return b == 0 ? 0.0 : static_cast<double>(1ULL << (b - 1)) * 2.0;
      }
    }
    return static_cast<double>(max);
  }
};

/// One named instrument in a registry snapshot.
struct MetricSample {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t value = 0;     ///< counter total
  std::int64_t gauge = 0;      ///< gauge level
  HistogramSnapshot histogram;  ///< kHistogram only
};

/// Monotonic event counter (relaxed atomic: totals are exact, ordering
/// against other instruments is not promised).
class Counter {
 public:
  void add(std::uint64_t v = 1) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins level (queue depths, cache occupancy).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed distribution of non-negative integer observations
/// (latencies in cycles, batch sizes). Lock-free: buckets/count/sum are
/// relaxed adds, min/max CAS loops; a snapshot is not an atomic cut but
/// every observation lands exactly once.
class Histogram {
 public:
  void observe(std::uint64_t v) noexcept {
    buckets_[static_cast<std::size_t>(std::bit_width(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_extreme(min_, v, /*want_smaller=*/true);
    update_extreme(max_, v, /*want_smaller=*/false);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.min = s.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  static void update_extreme(std::atomic<std::uint64_t>& slot,
                             std::uint64_t v, bool want_smaller) noexcept {
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while ((want_smaller ? v < seen : v > seen) &&
           !slot.compare_exchange_weak(seen, v,
                                       std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Name -> instrument directory. Registration is mutex-guarded and
/// idempotent (same name returns the same instrument); the returned
/// references stay valid and lock-free for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Name-sorted copy of every instrument (counters, then gauges, then
  /// histograms under equal names — names are unique per kind).
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

 private:
  mutable std::mutex mutex_;
  // deques: stable element addresses across registration.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, Counter*, std::less<>> counter_index_;
  std::map<std::string, Gauge*, std::less<>> gauge_index_;
  std::map<std::string, Histogram*, std::less<>> histogram_index_;
};

// Null-safe record helpers: components hold nullable instrument pointers
// (nullptr = no registry configured) and record through these.
inline void add(Counter* counter, std::uint64_t v = 1) noexcept {
  if (counter != nullptr) {
    counter->add(v);
  }
}
inline void set(Gauge* gauge, std::int64_t v) noexcept {
  if (gauge != nullptr) {
    gauge->set(v);
  }
}
inline void observe(Histogram* histogram, std::uint64_t v) noexcept {
  if (histogram != nullptr) {
    histogram->observe(v);
  }
}

/// Instrument lookup through a nullable registry (the idiom every serve
/// component uses in its constructor).
[[nodiscard]] inline Counter* counter(MetricsRegistry* registry,
                                      std::string_view name) {
  return registry != nullptr ? &registry->counter(name) : nullptr;
}
[[nodiscard]] inline Gauge* gauge(MetricsRegistry* registry,
                                  std::string_view name) {
  return registry != nullptr ? &registry->gauge(name) : nullptr;
}
[[nodiscard]] inline Histogram* histogram(MetricsRegistry* registry,
                                          std::string_view name) {
  return registry != nullptr ? &registry->histogram(name) : nullptr;
}

}  // namespace mann::obs
