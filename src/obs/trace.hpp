// mann::obs tracing: per-request lifecycle spans and device/worker
// occupancy, recorded contention-free and exported as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing).
//
// Two time domains share one trace:
//   * kSim  (pid 1) — timestamps are simulated cycles. Every lifecycle
//     span and device-slot event lives here, and because the serving
//     timeline is bit-identical for any worker count, the simulated
//     slice of a trace is deterministic (the obs test suite compares it
//     byte-for-byte across worker counts).
//   * kHost (pid 2) — timestamps are host nanoseconds since the recorder
//     was constructed. Worker speculation spans and dispatch-path cache
//     outcomes live here; they explain where the *wall clock* went and
//     are inherently nondeterministic.
//
// The per-request story is four nested async spans on the requests
// track, all sharing the request id:
//   request  — arrival to completion (or immediate end when shed)
//   queued   — batcher lane residence (admission to batch formation)
//   pending  — scheduler queue residence (batch formed to dispatch)
//   service  — device execution (dispatch to completion)
// Sheds additionally drop an instant on the frontend track carrying the
// ShedReason name.
//
// Recording follows MAGPIE's contention-free per-worker buffering idiom:
// each thread appends to its own buffer (registered once under a mutex,
// then cached thread-locally), so the hot path never takes a shared
// lock; merged() concatenates and stable-sorts the buffers at finalize.
//
// Off-switches: a component given no recorder (a null
// ServerConfig::trace) skips every record site behind one null check,
// and set_enabled(false) drops events at the door of a live recorder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mann::obs {

/// Time domain of an event (see the header comment).
enum class Domain : std::uint8_t {
  kSim,   ///< timestamps in simulated cycles (deterministic)
  kHost,  ///< timestamps in host ns since recorder construction
};

/// Chrome trace-event phase subset the serving stack records.
enum class Phase : std::uint8_t {
  kComplete,    ///< "X": ts + dur block on a track
  kAsyncBegin,  ///< "b": opens an id-keyed span on the requests track
  kAsyncEnd,    ///< "e": closes it
  kInstant,     ///< "i": a point event
};

// Track ids (exported as tid). Simulated domain:
inline constexpr std::uint32_t kTrackFrontend = 1;  ///< admission/sheds
inline constexpr std::uint32_t kTrackRequests = 2;  ///< lifecycle spans
inline constexpr std::uint32_t kTrackRouter = 3;    ///< cluster-level events
inline constexpr std::uint32_t kTrackDeviceBase = 100;  ///< + slot id
/// Cluster routing decisions land on a per-instance lane (+ instance id),
/// so Perfetto shows which server instance each request was assigned to.
inline constexpr std::uint32_t kTrackInstanceBase = 300;
// Host domain:
inline constexpr std::uint32_t kTrackDispatch = 199;  ///< cache outcomes
inline constexpr std::uint32_t kTrackWorkerBase = 200;  ///< + worker index

inline constexpr std::uint64_t kNoId = ~std::uint64_t{0};

/// One recorded event. Fixed-size, allocation-free: names and details
/// must be string literals (static storage), numeric context rides in
/// typed fields (-1 = absent).
struct TraceEvent {
  const char* name = "";
  const char* detail = nullptr;  ///< shed reason / cache outcome / variant
  Phase phase = Phase::kInstant;
  Domain domain = Domain::kSim;
  std::uint32_t track = kTrackFrontend;
  std::uint64_t ts = 0;       ///< cycles (kSim) or ns (kHost)
  std::uint64_t dur = 0;      ///< kComplete only
  std::uint64_t id = kNoId;   ///< async span id (the request id)
  std::uint64_t seq = 0;      ///< recorder-wide record order
  std::int64_t task = -1;
  std::int64_t tenant = -1;
  std::int64_t batch = -1;    ///< batch size
  std::int64_t deadline = -1; ///< deadline cycle
};

class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens an id-keyed span on the requests track.
  void begin_async(const char* name, std::uint64_t id, std::uint64_t ts,
                   std::int64_t task = -1, std::int64_t tenant = -1,
                   std::int64_t deadline = -1);
  /// Closes it (matched by name + id).
  void end_async(const char* name, std::uint64_t id, std::uint64_t ts);

  /// `id` ties a point event to a request (exported in args; kNoId =
  /// absent) — the cluster router stamps its routing decisions with the
  /// assigned request id so trace analysis can join them against the
  /// lifecycle spans.
  void instant(Domain domain, std::uint32_t track, const char* name,
               std::uint64_t ts, const char* detail = nullptr,
               std::int64_t task = -1, std::int64_t tenant = -1,
               std::uint64_t id = kNoId);

  void complete(Domain domain, std::uint32_t track, const char* name,
                std::uint64_t ts, std::uint64_t dur,
                const char* detail = nullptr, std::int64_t task = -1,
                std::int64_t tenant = -1, std::int64_t batch = -1);

  /// Host ns since construction (the kHost timestamp source).
  [[nodiscard]] std::uint64_t wall_ns() const noexcept;

  /// Runtime gate: while disabled, every recording call is dropped at
  /// the door (already-recorded events are kept). Lets a long-running
  /// server window its tracing (mann_served's `trace on|off`) without
  /// re-plumbing recorder pointers through a live stack. Enabled at
  /// construction.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// All events, stable-sorted by (domain, track, ts, seq). Call after
  /// recording threads are quiescent (e.g. post Scheduler::quiesce()).
  [[nodiscard]] std::vector<TraceEvent> merged() const;

  [[nodiscard]] std::size_t event_count() const;

 private:
  struct Buffer {
    std::vector<TraceEvent> events;
  };

  void record(TraceEvent event);
  [[nodiscard]] Buffer& local_buffer();

  std::chrono::steady_clock::time_point epoch_;
  /// Process-unique: a freshly constructed recorder at a recycled
  /// address must not match another thread-local buffer cache entry.
  std::uint64_t instance_id_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex mutex_;  ///< guards buffers_ registration/merge only
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Serializes the recorder (and an optional metrics snapshot, under the
/// non-standard "mannMetrics" key Perfetto ignores) as Chrome
/// trace-event JSON. `clock_hz` converts simulated cycles to trace
/// microseconds.
[[nodiscard]] std::string chrome_trace_json(
    const TraceRecorder& recorder, double clock_hz,
    const MetricsRegistry* metrics = nullptr);

/// chrome_trace_json straight to `path`; false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path,
                        const TraceRecorder& recorder, double clock_hz,
                        const MetricsRegistry* metrics = nullptr);

}  // namespace mann::obs
