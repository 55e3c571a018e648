#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace mann::obs {
namespace {

// Structural JSON sanity without a parser: balanced delimiters and no
// trailing commas before a closing bracket/brace. The Python analyzer
// (scripts/trace_summary.py) does the full parse in CI.
void expect_balanced_json(const std::string& json) {
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) {
      continue;
    }
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
  EXPECT_EQ(json.find(",\n]"), std::string::npos);
  EXPECT_EQ(json.find(",\n}"), std::string::npos);
}

TEST(ChromeTraceJson, EmptyRecorderIsValid) {
  TraceRecorder recorder;
  const std::string json = chrome_trace_json(recorder, 100.0e6);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"mannClockHz\""), std::string::npos);
}

TEST(ChromeTraceJson, MetricsSnapshotEmbeds) {
  TraceRecorder recorder;
  MetricsRegistry registry;
  add(counter(&registry, "serve.test.counter"), 3);
  const std::string json = chrome_trace_json(recorder, 100.0e6, &registry);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"mannMetrics\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.test.counter\":3"), std::string::npos);
}

TEST(TraceRecorder, LifecycleSpansRoundTrip) {
  TraceRecorder recorder;
  recorder.begin_async("request", /*id=*/7, /*ts=*/100, /*task=*/2,
                       /*tenant=*/1, /*deadline=*/5'000);
  recorder.begin_async("queued", 7, 100, 2, 1);
  recorder.end_async("queued", 7, 250);
  recorder.instant(Domain::kSim, kTrackFrontend, "shed", 300, "quota", 3);
  recorder.complete(Domain::kSim, kTrackDeviceBase + 1, "batch", 250, 400,
                    "warm", 2, 1, 4);
  recorder.end_async("request", 7, 650);
  EXPECT_EQ(recorder.event_count(), 6U);

  const std::vector<TraceEvent> events = recorder.merged();
  ASSERT_EQ(events.size(), 6U);
  // merged() orders by (domain, track, ts, seq): frontend instant first,
  // then the requests track in record order, then the device slot.
  EXPECT_STREQ(events[0].name, "shed");
  EXPECT_STREQ(events[0].detail, "quota");
  EXPECT_STREQ(events[1].name, "request");
  EXPECT_EQ(events[1].phase, Phase::kAsyncBegin);
  EXPECT_EQ(events[1].id, 7U);
  EXPECT_EQ(events[1].deadline, 5'000);
  EXPECT_STREQ(events[4].name, "request");
  EXPECT_EQ(events[4].phase, Phase::kAsyncEnd);
  EXPECT_STREQ(events[5].name, "batch");
  EXPECT_EQ(events[5].dur, 400U);
  EXPECT_EQ(events[5].batch, 4);
  // Sim-domain events sort before host-domain, and within a track by ts.
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return std::tie(a.domain, a.track, a.ts) <
                                      std::tie(b.domain, b.track, b.ts);
                             }));
}

TEST(TraceRecorder, ConcurrentRecordingLosesNothing) {
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.complete(Domain::kHost, kTrackWorkerBase + t, "speculate",
                          recorder.wall_ns(), 10, "hit",
                          /*task=*/t);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const std::vector<TraceEvent> events = recorder.merged();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Every event survives with its per-thread track, and seq numbers are
  // unique across buffers.
  std::map<std::uint32_t, int> per_track;
  std::vector<std::uint64_t> seqs;
  seqs.reserve(events.size());
  for (const TraceEvent& e : events) {
    ++per_track[e.track];
    seqs.push_back(e.seq);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_track[kTrackWorkerBase + t], kPerThread);
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end());
}

TEST(ChromeTraceJson, EventsSerializeWithArgs) {
  TraceRecorder recorder;
  recorder.begin_async("request", 1, 500, /*task=*/3, /*tenant=*/2,
                       /*deadline=*/9'000);
  recorder.end_async("request", 1, 1'500);
  recorder.instant(Domain::kSim, kTrackFrontend, "shed", 700, "overload");
  recorder.complete(Domain::kHost, kTrackDispatch, "cache", 100, 0, "miss");
  const std::string json = chrome_trace_json(recorder, 100.0e6);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"overload\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline\":9000"), std::string::npos);
  // 500 cycles at 100 MHz = 5 µs (sim domain, pid 1); the host-domain
  // cache instant lands on pid 2 at ts = 100 ns = 0.1 µs.
  EXPECT_NE(json.find("\"pid\":1,\"tid\":2,\"ts\":5.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":2,\"tid\":199,\"ts\":0.100"),
            std::string::npos);
  // Track metadata names both processes.
  EXPECT_NE(json.find("\"simulated\""), std::string::npos);
  EXPECT_NE(json.find("\"host\""), std::string::npos);
}

}  // namespace
}  // namespace mann::obs
