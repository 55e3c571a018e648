#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace mann::obs {
namespace {

TEST(NullSafeHelpers, NullPointersAreNoOps) {
  // Components record through these with nullptr when no registry is
  // configured; none of this may crash.
  add(static_cast<Counter*>(nullptr));
  add(static_cast<Counter*>(nullptr), 7);
  set(static_cast<Gauge*>(nullptr), -3);
  observe(static_cast<Histogram*>(nullptr), 42);
  EXPECT_EQ(counter(nullptr, "x"), nullptr);
  EXPECT_EQ(gauge(nullptr, "x"), nullptr);
  EXPECT_EQ(histogram(nullptr, "x"), nullptr);
}

TEST(NullSafeHelpers, RegistryLookupRecords) {
  MetricsRegistry registry;
  Counter* c = counter(&registry, "test.counter");
  ASSERT_NE(c, nullptr);
  add(c);
  add(c, 4);
  Gauge* g = gauge(&registry, "test.gauge");
  ASSERT_NE(g, nullptr);
  set(g, 17);
  Histogram* h = histogram(&registry, "test.histogram");
  ASSERT_NE(h, nullptr);
  observe(h, 100);
  EXPECT_EQ(c->value(), 5U);
  EXPECT_EQ(g->value(), 17);
  EXPECT_EQ(h->snapshot().count, 1U);
}

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10U);
}

TEST(Gauge, LastWriterWins) {
  Gauge g;
  g.set(5);
  g.set(-2);
  EXPECT_EQ(g.value(), -2);
}

TEST(Histogram, BucketsByBitWidth) {
  Histogram h;
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1
  h.observe(7);   // bucket 3: [4, 8)
  h.observe(8);   // bucket 4: [8, 16)
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4U);
  EXPECT_EQ(s.sum, 16U);
  EXPECT_EQ(s.min, 0U);
  EXPECT_EQ(s.max, 8U);
  EXPECT_EQ(s.buckets[0], 1U);
  EXPECT_EQ(s.buckets[1], 1U);
  EXPECT_EQ(s.buckets[3], 1U);
  EXPECT_EQ(s.buckets[4], 1U);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  // Quantiles report bucket upper bounds: the p99 observation (8) lives
  // in [8, 16), whose upper bound is 16.
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 16.0);
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0U);
  EXPECT_EQ(s.min, 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter& a = registry.counter("serve.test");
  Counter& b = registry.counter("serve.test");
  EXPECT_EQ(&a, &b);
  // Same name, different kind: distinct instruments.
  Gauge& g = registry.gauge("serve.test");
  g.set(1);
  a.add();
  EXPECT_EQ(a.value(), 1U);
  EXPECT_EQ(g.value(), 1);
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("b.second").add(2);
  registry.counter("a.first").add(1);
  registry.gauge("c.gauge").set(-4);
  registry.histogram("d.hist").observe(3);
  const std::vector<MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 4U);
  EXPECT_EQ(samples[0].name, "a.first");
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[0].value, 1U);
  EXPECT_EQ(samples[1].name, "b.second");
  EXPECT_EQ(samples[1].value, 2U);
  EXPECT_EQ(samples[2].name, "c.gauge");
  EXPECT_EQ(samples[2].gauge, -4);
  EXPECT_EQ(samples[3].name, "d.hist");
  EXPECT_EQ(samples[3].histogram.count, 1U);
}

TEST(MetricsRegistry, ConcurrentRecordingIsExact) {
  MetricsRegistry registry;
  Counter& c = registry.counter("concurrent.counter");
  Histogram& h = registry.histogram("concurrent.hist");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.min, 0U);
  EXPECT_EQ(s.max, static_cast<std::uint64_t>(kPerThread - 1));
}

}  // namespace
}  // namespace mann::obs
