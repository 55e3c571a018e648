#include "serve/batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mann::serve {

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
  if (!queues_[lane].try_push(request)) {
    return false;
  }
  ++pending_;
  ++counters_.requests_in;
  obs::add(obs_requests_in_);
  return true;
}

std::optional<Batch> Batcher::poll(sim::Cycle now) {
  const std::size_t n = queues_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lane = (rotate_ + i) % n;
    const sim::Fifo<InferenceRequest>& q = queues_[lane];
    const InferenceRequest* head = q.peek();
    if (head == nullptr) {
      continue;
    }
    const bool full = q.size() >= config_.max_batch;
    const bool timed_out =
        now - head->enqueue_cycle >= config_.max_wait_cycles;
    if (!full && !timed_out) {
      continue;
    }
    full ? ++counters_.flush_full : ++counters_.flush_timeout;
    rotate_ = (lane + 1) % n;  // next poll starts after the flushed lane
    return flush_lane(lane);
  }
  return std::nullopt;
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
  sim::Cycle deadline = sim::kNever;
  for (const auto& q : queues_) {
    const InferenceRequest* head = q.peek();
    if (head != nullptr) {
      deadline =
          std::min(deadline, head->enqueue_cycle + config_.max_wait_cycles);
    }
  }
  return deadline;
}

Batch Batcher::flush_lane(std::size_t lane) {
  sim::Fifo<InferenceRequest>& q = queues_[lane];
  Batch batch;
  batch.task = lane / num_tenants_;
  batch.tenant = static_cast<TenantId>(lane % num_tenants_);
  const std::size_t take = std::min(q.size(), config_.max_batch);
  pending_ -= take;
  batch.requests.reserve(take);
  batch.stories.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    InferenceRequest request = *q.try_pop();
    batch.deadline = std::min(batch.deadline, request.deadline_cycle);
    batch.stories.push_back(*request.story);
    batch.requests.push_back(request);
  }
  ++counters_.batches_out;
  counters_.stories_out += batch.size();
  obs::add(obs_batches_out_);
  obs::observe(obs_batch_size_, batch.size());
  return batch;
}

}  // namespace mann::serve
