#include "serve/request.hpp"

#include <cmath>
#include <stdexcept>

namespace mann::serve {

namespace {

/// Salt separating the tenant-draw RNG stream from the arrival stream:
/// labelling traffic with tenants must not move a single arrival cycle.
constexpr std::uint64_t kTenantStreamSalt = 0xA5A5'5A5A'7E6A'2019ULL;

}  // namespace

TrafficGenerator::TrafficGenerator(TrafficConfig config,
                                   std::size_t num_tasks,
                                   std::size_t total_requests)
    : config_(std::move(config)), num_tasks_(num_tasks),
      total_(total_requests), rng_(config_.seed),
      tenant_rng_(config_.seed ^ kTenantStreamSalt) {
  if (num_tasks_ == 0) {
    throw std::invalid_argument("TrafficGenerator: no tasks");
  }
  // Every range test below is written so that NaN fails it.
  if (!(config_.mean_interarrival_cycles > 0.0) ||
      !std::isfinite(config_.mean_interarrival_cycles)) {
    throw std::invalid_argument(
        "TrafficGenerator: mean interarrival must be finite and positive");
  }
  num_tenants_ = config_.tenants.empty() ? 1 : config_.tenants.size();
  if (!config_.tenants.empty()) {
    double cumulative = 0.0;
    tenant_share_cdf_.reserve(config_.tenants.size());
    for (const TenantConfig& tenant : config_.tenants) {
      if (!(tenant.traffic_share >= 0.0) ||
          !std::isfinite(tenant.traffic_share)) {
        throw std::invalid_argument(
            "TrafficGenerator: tenant traffic_share must be finite and >= 0");
      }
      cumulative += tenant.traffic_share;
      tenant_share_cdf_.push_back(cumulative);
    }
    if (cumulative <= 0.0) {
      throw std::invalid_argument(
          "TrafficGenerator: tenant traffic shares must sum to > 0");
    }
  }
  if (config_.process == ArrivalProcess::kBursty) {
    if (!(config_.burst_mean >= 1.0) || !std::isfinite(config_.burst_mean)) {
      throw std::invalid_argument(
          "TrafficGenerator: burst_mean must be finite and >= 1");
    }
    // The inter-burst gap absorbs what the intra-burst gaps undershoot so
    // the long-run rate matches mean_interarrival_cycles; that only works
    // when the intra-burst gaps don't already exceed the budget.
    if (!std::isfinite(config_.burst_gap_cycles) ||
        !(config_.burst_mean * config_.mean_interarrival_cycles >
          (config_.burst_mean - 1.0) * config_.burst_gap_cycles)) {
      throw std::invalid_argument(
          "TrafficGenerator: burst_gap_cycles too large to honour "
          "mean_interarrival_cycles at this burst_mean");
    }
  }
  if (config_.process == ArrivalProcess::kDiurnal) {
    if (!(config_.diurnal_amplitude >= 0.0 &&
          config_.diurnal_amplitude < 1.0)) {
      throw std::invalid_argument(
          "TrafficGenerator: diurnal_amplitude must sit in [0, 1)");
    }
    if (!(config_.diurnal_period_cycles > 0.0) ||
        !std::isfinite(config_.diurnal_period_cycles)) {
      throw std::invalid_argument(
          "TrafficGenerator: diurnal_period_cycles must be finite and "
          "positive");
    }
  }
  if (config_.process == ArrivalProcess::kTrace) {
    if (config_.trace.empty()) {
      throw std::invalid_argument("TrafficGenerator: trace replay needs a "
                                  "non-empty trace");
    }
    sim::Cycle previous = 0;
    for (const TraceEntry& entry : config_.trace) {
      if (entry.arrival_cycle < previous) {
        throw std::invalid_argument(
            "TrafficGenerator: trace arrival cycles must be non-decreasing");
      }
      previous = entry.arrival_cycle;
      if (entry.task >= num_tasks_) {
        throw std::invalid_argument(
            "TrafficGenerator: trace names task " +
            std::to_string(entry.task) + " but only " +
            std::to_string(num_tasks_) + " task(s) are served");
      }
      if (entry.tenant >= num_tenants_) {
        throw std::invalid_argument(
            "TrafficGenerator: trace names tenant " +
            std::to_string(entry.tenant) + " but the registry has " +
            std::to_string(num_tenants_) + " tenant(s)");
      }
    }
    // Loop shift: one trace span plus the trace's own mean gap, so the
    // next lap neither overlaps the last arrival nor opens a dead gap.
    const sim::Cycle last = config_.trace.back().arrival_cycle;
    const auto n = static_cast<sim::Cycle>(config_.trace.size());
    trace_span_ = last + std::max<sim::Cycle>(1, last / n);
  }
  // The first arrival is drawn like every later one (no artificial
  // request at cycle 0).
  schedule_next();
}

std::size_t TrafficGenerator::next_task() {
  if (config_.process == ArrivalProcess::kTrace) {
    return config_.trace[emitted_ % config_.trace.size()].task;
  }
  return rng_.index(num_tasks_);
}

TenantId TrafficGenerator::next_tenant() {
  if (config_.process == ArrivalProcess::kTrace) {
    return config_.trace[emitted_ % config_.trace.size()].tenant;
  }
  if (tenant_share_cdf_.size() < 2) {
    return 0;  // no registry (or a single tenant): no draw needed
  }
  const double u = tenant_rng_.uniform() * tenant_share_cdf_.back();
  for (std::size_t i = 0; i < tenant_share_cdf_.size(); ++i) {
    if (u < tenant_share_cdf_[i]) {
      return static_cast<TenantId>(i);
    }
  }
  return static_cast<TenantId>(tenant_share_cdf_.size() - 1);
}

std::optional<TraceEntry> TrafficGenerator::poll(sim::Cycle now) {
  if (exhausted() || next_cycle_ > now) {
    return std::nullopt;
  }
  TraceEntry arrival;
  arrival.arrival_cycle = next_cycle_;
  arrival.task = next_task();
  arrival.tenant = next_tenant();
  ++emitted_;
  if (!exhausted()) {
    schedule_next();
  }
  return arrival;
}

void TrafficGenerator::schedule_next() {
  // Inverse-CDF exponential; uniform() < 1 keeps the log argument positive.
  const auto exponential = [this](double mean) {
    return -mean * std::log(1.0 - rng_.uniform());
  };

  if (config_.process == ArrivalProcess::kTrace) {
    const std::size_t n = config_.trace.size();
    const std::size_t lap = emitted_ / n;
    next_cycle_ = config_.trace[emitted_ % n].arrival_cycle +
                  static_cast<sim::Cycle>(lap) * trace_span_;
    return;
  }

  double gap = 0.0;
  switch (config_.process) {
    case ArrivalProcess::kPoisson:
      gap = exponential(config_.mean_interarrival_cycles);
      break;
    case ArrivalProcess::kDiurnal: {
      // Rate modulation evaluated at the current clock: the instantaneous
      // rate is base * (1 + A sin(2πt/P)), so the mean gap shrinks at the
      // daily peak and stretches in the trough. A < 1 keeps the factor
      // strictly positive.
      constexpr double kTwoPi = 6.283185307179586;
      const double phase =
          kTwoPi * arrival_clock_ / config_.diurnal_period_cycles;
      const double factor =
          1.0 + config_.diurnal_amplitude * std::sin(phase);
      gap = exponential(config_.mean_interarrival_cycles / factor);
      break;
    }
    case ArrivalProcess::kBursty: {
      if (burst_left_ > 0) {
        --burst_left_;
        gap = config_.burst_gap_cycles;
        break;
      }
      // New burst: geometric length with the configured mean, then an
      // inter-burst gap sized so that the long-run rate still matches
      // mean_interarrival_cycles.
      std::size_t length = 1;
      while (config_.burst_mean > 1.0 &&
             rng_.uniform() < 1.0 - 1.0 / config_.burst_mean) {
        ++length;
      }
      burst_left_ = length - 1;
      // Positive by the constructor's rate-budget check.
      const double inter_burst_mean =
          config_.burst_mean * config_.mean_interarrival_cycles -
          (config_.burst_mean - 1.0) * config_.burst_gap_cycles;
      gap = exponential(inter_burst_mean);
      break;
    }
    case ArrivalProcess::kTrace:
      break;  // handled above
  }

  arrival_clock_ += std::max(1.0, gap);
  next_cycle_ = static_cast<sim::Cycle>(std::llround(arrival_clock_));
}

}  // namespace mann::serve
