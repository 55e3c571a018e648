#include "serve/batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mann::serve {
namespace {

/// Inserts `value` into `set` through `spare`, the node its lane left the
/// set with, so only a lane's first insert allocates.
template <typename Set>
void insert_through(Set& set, typename Set::node_type& spare,
                    typename Set::value_type value) {
  if (spare.empty()) {
    set.insert(value);
    return;
  }
  spare.value() = value;
  set.insert(std::move(spare));
}

}  // namespace

Batcher::Batcher(BatcherConfig config, std::size_t num_tasks,
                 std::size_t num_tenants, obs::MetricsRegistry* metrics)
    : config_(config),
      num_tenants_(num_tenants),
      obs_requests_in_(obs::counter(metrics, "serve.batcher.requests_in")),
      obs_batches_out_(obs::counter(metrics, "serve.batcher.batches_out")),
      obs_batch_size_(obs::histogram(metrics, "serve.batcher.batch_size")) {
  if (num_tasks == 0) {
    throw std::invalid_argument("Batcher: need at least one task");
  }
  if (num_tenants_ == 0) {
    throw std::invalid_argument("Batcher: need at least one tenant");
  }
  if (config_.max_batch == 0) {
    throw std::invalid_argument("Batcher: max_batch must be > 0");
  }
  queues_.reserve(num_tasks * num_tenants_);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    for (std::size_t u = 0; u < num_tenants_; ++u) {
      std::string name = "BATCH_Q" + std::to_string(t);
      if (num_tenants_ > 1) {
        name += '.';
        name += std::to_string(u);
      }
      queues_.emplace_back(std::move(name), config_.queue_capacity);
    }
  }
  spare_full_.resize(queues_.size());
  spare_heads_.resize(queues_.size());
}

bool Batcher::enqueue(const InferenceRequest& request) {
  if (request.task * num_tenants_ >= queues_.size()) {
    throw std::out_of_range("Batcher: unknown task id");
  }
  if (request.tenant >= num_tenants_) {
    throw std::out_of_range("Batcher: unknown tenant id");
  }
  if (request.story == nullptr) {
    throw std::invalid_argument("Batcher: request without a story");
  }
  const std::size_t lane = request.task * num_tenants_ + request.tenant;
  sim::Fifo<InferenceRequest>& q = queues_[lane];
  if (!q.try_push(request)) {
    return false;
  }
  if (q.size() == 1) {
    insert_through(heads_, spare_heads_[lane], {request.enqueue_cycle, lane});
  }
  if (q.size() == config_.max_batch) {
    insert_through(full_lanes_, spare_full_[lane], lane);
  }
  ++pending_;
  ++counters_.requests_in;
  obs::add(obs_requests_in_);
  return true;
}

std::optional<Batch> Batcher::poll(sim::Cycle now) {
  // Ready lanes are the full ones and those whose head was enqueued at or
  // before now - max_wait_cycles; flush the one a scan from the cursor
  // would meet first, i.e. the one at the least distance past it.
  const std::size_t n = queues_.size();
  const auto past_cursor = [this, n](std::size_t lane) {
    return (lane + n - rotate_) % n;
  };
  std::size_t best = n;  // distance past the cursor; n = nothing ready
  if (!full_lanes_.empty()) {
    auto first = full_lanes_.lower_bound(rotate_);
    best = past_cursor(first != full_lanes_.end() ? *first
                                                  : *full_lanes_.begin());
  }
  if (now >= config_.max_wait_cycles) {
    const sim::Cycle waited_since = now - config_.max_wait_cycles;
    for (auto head = heads_.begin();
         head != heads_.end() && head->first <= waited_since && best > 0;
         ++head) {
      best = std::min(best, past_cursor(head->second));
    }
  }
  if (best == n) {
    return std::nullopt;
  }
  const std::size_t lane = (rotate_ + best) % n;
  queues_[lane].size() >= config_.max_batch ? ++counters_.flush_full
                                            : ++counters_.flush_timeout;
  rotate_ = (lane + 1) % n;  // next poll starts after the flushed lane
  return flush_lane(lane);
}

std::optional<Batch> Batcher::drain(sim::Cycle /*now*/) {
  const std::size_t n = queues_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lane = (rotate_ + i) % n;
    if (queues_[lane].empty()) {
      continue;
    }
    ++counters_.flush_drain;
    rotate_ = (lane + 1) % n;
    return flush_lane(lane);
  }
  return std::nullopt;
}

sim::Cycle Batcher::next_deadline() const noexcept {
  if (heads_.empty()) {
    return sim::kNever;
  }
  const sim::Cycle oldest = heads_.begin()->first;
  return config_.max_wait_cycles >= sim::kNever - oldest
             ? sim::kNever
             : oldest + config_.max_wait_cycles;
}

Batch Batcher::flush_lane(std::size_t lane) {
  sim::Fifo<InferenceRequest>& q = queues_[lane];
  Batch batch;
  batch.task = lane / num_tenants_;
  batch.tenant = static_cast<TenantId>(lane % num_tenants_);
  const std::size_t take = std::min(q.size(), config_.max_batch);
  pending_ -= take;
  auto head = heads_.extract({q.peek()->enqueue_cycle, lane});
  batch.requests.reserve(take);
  batch.stories.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    InferenceRequest request = *q.try_pop();
    batch.deadline = std::min(batch.deadline, request.deadline_cycle);
    batch.stories.push_back(request.story);
    batch.requests.push_back(request);
  }
  if (!q.empty()) {
    // A partial flush: the lane's new head re-keys its node in place.
    head.value().first = q.peek()->enqueue_cycle;
    heads_.insert(std::move(head));
  } else {
    spare_heads_[lane] = std::move(head);
  }
  if (q.size() < config_.max_batch) {
    if (auto full = full_lanes_.extract(lane)) {
      spare_full_[lane] = std::move(full);
    }
  }
  ++counters_.batches_out;
  counters_.stories_out += batch.size();
  obs::add(obs_batches_out_);
  obs::observe(obs_batch_size_, batch.size());
  return batch;
}

}  // namespace mann::serve
