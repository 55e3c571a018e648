// Dynamic batcher: coalesces same-task, same-tenant requests into device
// batches.
//
// A device runs one task's program at a time, so batching is per task —
// and, when a tenant registry is configured, per (task, tenant): tenant
// isolation starts at queueing, so one tenant's backlog never rides in
// (or delays the flush of) another tenant's batches, and every batch
// belongs to exactly one tenant for the WFQ dispatcher downstream. Each
// lane is a bounded pending queue (a sim::Fifo). A lane is flushed into
// a Batch when it reaches max_batch requests (flush-on-full) or when its
// oldest request has waited max_wait_cycles (flush-on-timeout) — the
// classic throughput/latency trade every serving stack exposes. With a
// single tenant the layout and behaviour are exactly the historical
// per-task batcher.
//
// Ready lanes are found without a scan: the batcher keeps the full lanes
// in lane order and every non-empty lane's (head enqueue cycle, lane) in
// age order, so poll() reads the full lanes and the timed-out prefix of
// the heads, and next_deadline() reads the oldest head. A lane that
// leaves either set keeps its node for its next entry, so after a lane's
// first fill its transitions allocate nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "data/types.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "sim/fifo.hpp"
#include "sim/types.hpp"

namespace mann::serve {

struct BatcherConfig {
  std::size_t max_batch = 8;
  sim::Cycle max_wait_cycles = 200'000;
  /// Per-lane pending-queue bound; enqueue() rejects beyond it (open-loop
  /// overload shedding, counted as a ShedReason::kQueueFull shed by the
  /// admission controller).
  std::size_t queue_capacity = 4096;
};

/// A flushed unit of work: same-task, same-tenant requests plus their
/// stories laid out contiguously for Accelerator::run().
struct Batch {
  std::size_t task = 0;
  TenantId tenant = 0;
  std::vector<InferenceRequest> requests;
  /// Parallel to requests: each request's own `story` pointer. The
  /// stories are borrowed from the served corpus, never copied, so the
  /// corpus must outlive every dispatch and speculative run of the batch.
  std::vector<const data::EncodedStory*> stories;
  /// Earliest member deadline — the urgency the EDF scheduler orders by
  /// (sim::kNever when no member carries an SLO).
  sim::Cycle deadline = sim::kNever;

  [[nodiscard]] std::size_t size() const noexcept { return requests.size(); }
};

/// Why batches left the batcher, for the batching-efficiency report.
struct BatcherCounters {
  std::uint64_t requests_in = 0;
  std::uint64_t batches_out = 0;
  std::uint64_t stories_out = 0;
  std::uint64_t flush_full = 0;     ///< lane reached max_batch
  std::uint64_t flush_timeout = 0;  ///< oldest request aged out
  std::uint64_t flush_drain = 0;    ///< forced out by drain()
};

class Batcher {
 public:
  /// `metrics`, when set, receives "serve.batcher.*" counters and the
  /// batch-size histogram (non-owning; may be null).
  Batcher(BatcherConfig config, std::size_t num_tasks,
          std::size_t num_tenants = 1,
          obs::MetricsRegistry* metrics = nullptr);

  [[nodiscard]] const BatcherConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t num_tenants() const noexcept {
    return num_tenants_;
  }

  /// Admits a request to its (task, tenant) lane; false when that lane
  /// is full (the session sheds it as ShedReason::kQueueFull).
  [[nodiscard]] bool enqueue(const InferenceRequest& request);

  /// Returns the next ready batch at `now`, fairly rotating across lanes:
  /// the first lane at or after the rotation cursor that is full or whose
  /// head has waited max_wait_cycles (a head enqueued after `now` has not
  /// waited). nullopt when nothing is ready.
  [[nodiscard]] std::optional<Batch> poll(sim::Cycle now);

  /// Flushes pending requests regardless of age/size — the end-of-stream
  /// drain once the traffic source is exhausted.
  [[nodiscard]] std::optional<Batch> drain(sim::Cycle now);

  /// Requests enqueued and not yet flushed, over every lane.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Earliest cycle at which a timeout flush could fire; sim::kNever when
  /// nothing is pending or that cycle is past the clock's range. Drives
  /// event-skipping in the serving loop.
  [[nodiscard]] sim::Cycle next_deadline() const noexcept;

  [[nodiscard]] const BatcherCounters& counters() const noexcept {
    return counters_;
  }

 private:
  [[nodiscard]] Batch flush_lane(std::size_t lane);

  BatcherConfig config_;
  std::size_t num_tenants_ = 1;
  /// Lane layout: task-major, tenant-minor (lane = task * tenants + t).
  std::vector<sim::Fifo<InferenceRequest>> queues_;
  std::size_t rotate_ = 0;  ///< fairness cursor over lanes
  std::size_t pending_ = 0;  ///< sum of the lanes' sizes
  using LaneSet = std::set<std::size_t>;
  using HeadSet = std::set<std::pair<sim::Cycle, std::size_t>>;
  /// Lanes holding at least max_batch requests.
  LaneSet full_lanes_;
  /// (head enqueue cycle, lane) of every non-empty lane, oldest first.
  HeadSet heads_;
  /// Per lane, its node of each set while the lane is out of that set.
  std::vector<LaneSet::node_type> spare_full_;
  std::vector<HeadSet::node_type> spare_heads_;
  BatcherCounters counters_;
  // Mirrored obs instruments (null without a registry).
  obs::Counter* obs_requests_in_ = nullptr;
  obs::Counter* obs_batches_out_ = nullptr;
  obs::Histogram* obs_batch_size_ = nullptr;
};

}  // namespace mann::serve
