#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace mann::serve {

double jain_index(std::span<const double> xs) {
  if (xs.size() < 2) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

LatencySummary summarize_latency(std::vector<sim::Cycle> samples,
                                 double clock_hz) {
  LatencySummary s;
  if (samples.empty()) {
    return s;
  }
  const sim::Cycle sum =
      std::accumulate(samples.begin(), samples.end(), sim::Cycle{0});
  s.mean_cycles = static_cast<double>(sum) /
                  static_cast<double>(samples.size());
  // Selection, not a sort: nth_element leaves every sample at or after
  // the selected rank no smaller than it, so each higher quantile (and
  // the max) is selected within the tail the previous selection left.
  auto tail = samples.begin();
  const auto percentile = [&samples, &tail](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           rank == 0 ? 0 : rank - 1,
                                           samples.size() - 1));
    std::nth_element(tail, nth, samples.end());
    tail = nth;
    return static_cast<double>(*nth);
  };
  s.p50_cycles = percentile(0.50);
  s.p95_cycles = percentile(0.95);
  s.p99_cycles = percentile(0.99);
  s.max_cycles = static_cast<double>(*std::max_element(tail, samples.end()));
  s.mean_seconds = s.mean_cycles / clock_hz;
  s.p50_seconds = s.p50_cycles / clock_hz;
  s.p95_seconds = s.p95_cycles / clock_hz;
  s.p99_seconds = s.p99_cycles / clock_hz;
  s.max_seconds = s.max_cycles / clock_hz;
  return s;
}

ServingMetrics::ServingMetrics(double clock_hz,
                               power::FpgaPowerConfig power_config)
    : clock_hz_(clock_hz), power_config_(power_config) {
  if (clock_hz <= 0.0) {
    throw std::invalid_argument("ServingMetrics: clock must be positive");
  }
}

void ServingMetrics::record(const InferenceResponse& response) {
  ++completed_;
  correct_ += response.prediction == response.answer ? 1 : 0;
  early_exits_ += response.early_exit ? 1 : 0;
  batch_size_sum_ += response.batch_size;
  latency_.push_back(response.latency_cycles());
  queue_wait_.push_back(response.queue_cycles());

  if (response.task >= per_task_.size()) {
    per_task_.resize(response.task + 1);
  }
  if (response.tenant >= per_tenant_.size()) {
    per_tenant_.resize(response.tenant + 1);
  }
  TaskCounters& task = per_task_[response.task];
  TenantCounters& tenant = per_tenant_[response.tenant];
  task.seen = true;
  ++task.completed;
  ++tenant.completed;
  if (response.has_deadline()) {
    ++deadline_total_;
    ++task.with_deadline;
    ++tenant.with_deadline;
    if (!response.deadline_met()) {
      ++deadline_missed_;
      ++task.violations;
      ++tenant.violations;
    }
  }
}

ServingReport ServingMetrics::finalize(RunTotals totals) const {
  ServingReport report;
  report.offered = totals.offered;
  report.completed = completed_;
  report.shed = totals.sheds;
  report.rejected = static_cast<std::size_t>(totals.sheds.total());
  report.makespan_cycles = totals.makespan;
  report.seconds = static_cast<double>(totals.makespan) / clock_hz_;
  if (report.seconds > 0.0) {
    report.throughput_stories_per_second =
        static_cast<double>(completed_) / report.seconds;
    report.offered_stories_per_second =
        static_cast<double>(totals.offered) / report.seconds;
  }
  if (completed_ > 0) {
    report.accuracy =
        static_cast<double>(correct_) / static_cast<double>(completed_);
    report.early_exit_rate =
        static_cast<double>(early_exits_) / static_cast<double>(completed_);
    report.mean_batch_size = static_cast<double>(batch_size_sum_) /
                             static_cast<double>(completed_);
  }
  if (totals.max_batch > 0) {
    report.batching_efficiency =
        report.mean_batch_size / static_cast<double>(totals.max_batch);
  }
  report.latency = summarize_latency(latency_, clock_hz_);
  report.queue_wait = summarize_latency(queue_wait_, clock_hz_);

  report.deadline_total = deadline_total_;
  report.deadline_missed = deadline_missed_;
  report.deadline_hit_rate =
      deadline_total_ == 0
          ? 1.0
          : 1.0 - static_cast<double>(deadline_missed_) /
                      static_cast<double>(deadline_total_);
  for (std::size_t t = 0; t < per_task_.size(); ++t) {
    if (!per_task_[t].seen) {
      continue;
    }
    TaskSloReport slo;
    slo.task = t;
    slo.completed = per_task_[t].completed;
    slo.with_deadline = per_task_[t].with_deadline;
    slo.violations = per_task_[t].violations;
    report.task_slo.push_back(slo);
  }

  // Per-tenant outcomes: one report per registry entry (or per tenant
  // observed anywhere — completions, sheds, admissions — when the
  // registry is empty or short).
  const std::size_t num_tenants = std::max(
      {totals.tenants.size(), per_tenant_.size(), totals.tenant_sheds.size(),
       totals.tenant_admitted.size(), std::size_t{1}});
  for (std::size_t t = 0; t < num_tenants; ++t) {
    TenantReport tenant;
    tenant.tenant = static_cast<TenantId>(t);
    if (t < totals.tenants.size()) {
      tenant.tier = totals.tenants[t].tier;
      tenant.weight = totals.tenants[t].weight;
    }
    if (t < per_tenant_.size()) {
      tenant.completed = per_tenant_[t].completed;
      tenant.with_deadline = per_tenant_[t].with_deadline;
      tenant.violations = per_tenant_[t].violations;
    }
    if (t < totals.tenant_sheds.size()) {
      tenant.shed = totals.tenant_sheds[t];
    }
    if (t < totals.tenant_admitted.size()) {
      tenant.admitted = totals.tenant_admitted[t];
    }
    report.tenants.push_back(tenant);
  }
  // Weight-normalized completions (every weight is > 0, validate_tenant):
  // 1.0 when service is exactly proportional to weight.
  std::vector<double> shares;
  shares.reserve(report.tenants.size());
  for (const TenantReport& tenant : report.tenants) {
    shares.push_back(static_cast<double>(tenant.completed) / tenant.weight);
  }
  report.fairness_index = jain_index(shares);

  report.batching = totals.batching;
  report.devices = std::move(totals.devices);
  report.model_uploads = totals.model_uploads;
  report.model_evictions = totals.model_evictions;
  report.stolen_batches = totals.stolen_batches;
  report.host_wall_seconds = totals.host_wall_seconds;
  report.cycle_cache = totals.cycle_cache;
  report.speculation = totals.speculation;
  if (totals.makespan > 0 && !report.devices.empty()) {
    double utilization = 0.0;
    for (const DeviceReport& d : report.devices) {
      utilization += static_cast<double>(d.busy_cycles) /
                     static_cast<double>(totals.makespan);
    }
    report.mean_device_utilization =
        utilization / static_cast<double>(report.devices.size());
  }

  // Serving energy: per-op dynamic energy over every dispatched run, the
  // host link while it moved words, and the static + clock-tree draw of
  // every pool device across the whole makespan (idle devices still
  // burn it — that is exactly why utilization matters for efficiency).
  const power::FpgaPowerModel power_model(power_config_);
  ServingEnergy& energy = report.energy;
  energy.dynamic_joules = power_model.op_energy(totals.device_ops);
  energy.link_joules = static_cast<double>(totals.link_active_cycles) /
                       clock_hz_ * power_config_.link_active_watts;
  const double device_watts =
      power_config_.static_watts + power_config_.clock_watts_per_hz * clock_hz_;
  energy.static_joules = device_watts * report.seconds *
                         static_cast<double>(report.devices.size());
  energy.total_joules =
      energy.dynamic_joules + energy.link_joules + energy.static_joules;
  if (report.seconds > 0.0) {
    energy.mean_watts = energy.total_joules / report.seconds;
  }
  if (completed_ > 0) {
    energy.per_inference_joules =
        energy.total_joules / static_cast<double>(completed_);
  }
  return report;
}

bool simulated_reports_identical(const ServingReport& a,
                                 const ServingReport& b) {
  return a.completed == b.completed && a.rejected == b.rejected &&
         a.makespan_cycles == b.makespan_cycles && a.accuracy == b.accuracy &&
         a.latency.p50_cycles == b.latency.p50_cycles &&
         a.latency.p95_cycles == b.latency.p95_cycles &&
         a.latency.p99_cycles == b.latency.p99_cycles &&
         a.latency.max_cycles == b.latency.max_cycles &&
         a.model_uploads == b.model_uploads &&
         a.model_evictions == b.model_evictions &&
         a.stolen_batches == b.stolen_batches &&
         a.deadline_missed == b.deadline_missed &&
         a.energy.per_inference_joules == b.energy.per_inference_joules &&
         a.batching.batches_out == b.batching.batches_out &&
         a.tenants == b.tenants;
}

}  // namespace mann::serve
