#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace mann::obs {

namespace {
std::atomic<std::uint64_t> g_next_recorder_id{1};
}  // namespace

TraceRecorder::TraceRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      instance_id_(g_next_recorder_id.fetch_add(
          1, std::memory_order_relaxed)) {}

TraceRecorder::Buffer& TraceRecorder::local_buffer() {
  // Per-thread buffer, registered once under the mutex and then cached:
  // the recording fast path is a plain vector push_back. A thread that
  // alternates between recorders re-registers on each switch (a fresh
  // buffer each time) — wasteful but correct, and it never happens on
  // the serving hot path, where each thread serves one recorder. The
  // cache is keyed on the process-unique instance id, not the address:
  // a later recorder constructed at a recycled address must not inherit
  // a dangling buffer pointer.
  struct Cache {
    std::uint64_t owner_id = 0;  ///< ids start at 1, so 0 never matches
    Buffer* buffer = nullptr;
  };
  thread_local Cache cache;
  if (cache.owner_id != instance_id_) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    cache = {instance_id_, buffers_.back().get()};
  }
  return *cache.buffer;
}

void TraceRecorder::record(TraceEvent event) {
  if (!enabled()) {
    return;
  }
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  local_buffer().events.push_back(event);
}

void TraceRecorder::begin_async(const char* name, std::uint64_t id,
                                std::uint64_t ts, std::int64_t task,
                                std::int64_t tenant, std::int64_t deadline) {
  TraceEvent e;
  e.name = name;
  e.phase = Phase::kAsyncBegin;
  e.domain = Domain::kSim;
  e.track = kTrackRequests;
  e.ts = ts;
  e.id = id;
  e.task = task;
  e.tenant = tenant;
  e.deadline = deadline;
  record(e);
}

void TraceRecorder::end_async(const char* name, std::uint64_t id,
                              std::uint64_t ts) {
  TraceEvent e;
  e.name = name;
  e.phase = Phase::kAsyncEnd;
  e.domain = Domain::kSim;
  e.track = kTrackRequests;
  e.ts = ts;
  e.id = id;
  record(e);
}

void TraceRecorder::instant(Domain domain, std::uint32_t track,
                            const char* name, std::uint64_t ts,
                            const char* detail, std::int64_t task,
                            std::int64_t tenant, std::uint64_t id) {
  TraceEvent e;
  e.name = name;
  e.detail = detail;
  e.phase = Phase::kInstant;
  e.domain = domain;
  e.track = track;
  e.ts = ts;
  e.task = task;
  e.tenant = tenant;
  e.id = id;
  record(e);
}

void TraceRecorder::complete(Domain domain, std::uint32_t track,
                             const char* name, std::uint64_t ts,
                             std::uint64_t dur, const char* detail,
                             std::int64_t task, std::int64_t tenant,
                             std::int64_t batch) {
  TraceEvent e;
  e.name = name;
  e.detail = detail;
  e.phase = Phase::kComplete;
  e.domain = domain;
  e.track = track;
  e.ts = ts;
  e.dur = dur;
  e.task = task;
  e.tenant = tenant;
  e.batch = batch;
  record(e);
}

std::uint64_t TraceRecorder::wall_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard lock(mutex_);
    std::size_t total = 0;
    for (const auto& buffer : buffers_) {
      total += buffer->events.size();
    }
    events.reserve(total);
    for (const auto& buffer : buffers_) {
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  // Deterministic for the simulated domain: sim events come from the one
  // simulation thread, so (ts, seq) reproduces record order exactly.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.domain, a.track, a.ts, a.seq) <
                            std::tie(b.domain, b.track, b.ts, b.seq);
                   });
  return events;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->events.size();
  }
  return total;
}

namespace {

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                          sizeof buf - 1));
  }
}

[[nodiscard]] int event_pid(const TraceEvent& e) noexcept {
  return e.domain == Domain::kSim ? 1 : 2;
}

/// Trace timestamps are microseconds: simulated cycles via the device
/// clock, host nanoseconds via /1000.
[[nodiscard]] double event_us(const TraceEvent& e,
                              double clock_hz) noexcept {
  return e.domain == Domain::kSim
             ? static_cast<double>(e.ts) / clock_hz * 1e6
             : static_cast<double>(e.ts) * 1e-3;
}

void append_args(std::string& out, const TraceEvent& e) {
  out += ",\"args\":{";
  bool first = true;
  const auto field = [&](const char* key, std::int64_t value) {
    if (value >= 0) {
      append(out, "%s\"%s\":%" PRId64, first ? "" : ",", key, value);
      first = false;
    }
  };
  field("task", e.task);
  field("tenant", e.tenant);
  field("batch", e.batch);
  field("deadline", e.deadline);
  // Async phases already print the id at the top level; instants (the
  // cluster router's routing decisions) carry it in args instead.
  if (e.phase == Phase::kInstant && e.id != kNoId) {
    append(out, "%s\"id\":%" PRIu64, first ? "" : ",", e.id);
    first = false;
  }
  if (e.detail != nullptr) {
    append(out, "%s\"detail\":\"%s\"", first ? "" : ",", e.detail);
  }
  out += "}";
}

void append_metadata(std::string& out, const std::vector<TraceEvent>& events) {
  const auto meta = [&](int pid, std::int64_t tid, const char* key,
                        const std::string& value) {
    append(out,
           "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d%s%lld"
           ",\"args\":{\"name\":\"%s\"}},\n",
           key, pid, tid >= 0 ? ",\"tid\":" : "",
           static_cast<long long>(tid >= 0 ? tid : 0), value.c_str());
  };
  std::set<std::pair<int, std::uint32_t>> tracks;
  std::set<int> pids;
  for (const TraceEvent& e : events) {
    tracks.insert({event_pid(e), e.track});
    pids.insert(event_pid(e));
  }
  for (const int pid : pids) {
    meta(pid, -1, "process_name", pid == 1 ? "simulated" : "host");
  }
  for (const auto& [pid, track] : tracks) {
    std::string name;
    if (track == kTrackFrontend) {
      name = "frontend";
    } else if (track == kTrackRequests) {
      name = "requests";
    } else if (track == kTrackRouter) {
      name = "router";
    } else if (track == kTrackDispatch) {
      name = "dispatch";
    } else if (track >= kTrackInstanceBase && pid == 1) {
      // Instance lanes are simulated-domain; host tids >= 200 stay
      // workers (the bases overlap numerically, the pid disambiguates).
      name = "instance " + std::to_string(track - kTrackInstanceBase);
    } else if (track >= kTrackWorkerBase) {
      name = "worker " + std::to_string(track - kTrackWorkerBase);
    } else if (track >= kTrackDeviceBase) {
      name = "device " + std::to_string(track - kTrackDeviceBase);
    } else {
      name = "track " + std::to_string(track);
    }
    meta(pid, static_cast<std::int64_t>(track), "thread_name", name);
  }
}

void append_metrics(std::string& out, const MetricsRegistry& metrics) {
  out += ",\n\"mannMetrics\":{";
  bool first_counter = true;
  bool first_gauge = true;
  bool first_histogram = true;
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const MetricSample& s : metrics.snapshot()) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        append(counters, "%s\"%s\":%" PRIu64, first_counter ? "" : ",",
               s.name.c_str(), s.value);
        first_counter = false;
        break;
      case MetricSample::Kind::kGauge:
        append(gauges, "%s\"%s\":%" PRId64, first_gauge ? "" : ",",
               s.name.c_str(), s.gauge);
        first_gauge = false;
        break;
      case MetricSample::Kind::kHistogram:
        append(histograms,
               "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
               ",\"min\":%" PRIu64 ",\"max\":%" PRIu64
               ",\"mean\":%.3f,\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
               first_histogram ? "" : ",", s.name.c_str(),
               s.histogram.count, s.histogram.sum, s.histogram.min,
               s.histogram.max, s.histogram.mean(),
               s.histogram.quantile(0.50), s.histogram.quantile(0.95),
               s.histogram.quantile(0.99));
        first_histogram = false;
        break;
    }
  }
  out += "\"counters\":{" + counters + "},";
  out += "\"gauges\":{" + gauges + "},";
  out += "\"histograms\":{" + histograms + "}}";
}

}  // namespace

std::string chrome_trace_json(const TraceRecorder& recorder,
                              double clock_hz,
                              const MetricsRegistry* metrics) {
  const std::vector<TraceEvent> events = recorder.merged();
  std::string out;
  out.reserve(160 * events.size() + 512);
  out += "{\"traceEvents\":[\n";
  append_metadata(out, events);
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    const double ts_us = event_us(e, clock_hz);
    switch (e.phase) {
      case Phase::kComplete: {
        const TraceEvent dur_probe{.domain = e.domain, .ts = e.dur};
        append(out,
               "{\"name\":\"%s\",\"cat\":\"serve\",\"ph\":\"X\","
               "\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
               e.name, event_pid(e), e.track, ts_us,
               event_us(dur_probe, clock_hz));
        break;
      }
      case Phase::kAsyncBegin:
      case Phase::kAsyncEnd:
        append(out,
               "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"%s\","
               "\"id\":%" PRIu64 ",\"pid\":%d,\"tid\":%u,\"ts\":%.3f",
               e.name, e.phase == Phase::kAsyncBegin ? "b" : "e", e.id,
               event_pid(e), e.track, ts_us);
        break;
      case Phase::kInstant:
        append(out,
               "{\"name\":\"%s\",\"cat\":\"serve\",\"ph\":\"i\","
               "\"s\":\"t\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f",
               e.name, event_pid(e), e.track, ts_us);
        break;
    }
    append_args(out, e);
    out += "}";
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\"";
  append(out, ",\n\"mannClockHz\":%.1f", clock_hz);
  if (metrics != nullptr) {
    append_metrics(out, *metrics);
  }
  out += "}\n";
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const TraceRecorder& recorder, double clock_hz,
                        const MetricsRegistry* metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = chrome_trace_json(recorder, clock_hz, metrics);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mann::obs
