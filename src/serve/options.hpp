// ServingOptions: a fluent builder over ServerConfig.
//
// ServerConfig grew one nested config per control-plane stage, and the
// call sites grew with it — a dozen lines of field-by-field assignment
// before a session could be constructed. The builder collapses that into
// a chain that names only what deviates from the defaults:
//
//   serve::ServerSession session(serve::ServingOptions()
//                                    .tenants(registry)
//                                    .slo(slos)
//                                    .policy(serve::SchedulerPolicy::kEdf)
//                                    .metrics(&registry)
//                                    .build(),
//                                models);
//
// Defaults (all inherited from the nested configs — the builder never
// invents its own):
//   * accel      — AccelConfig{}: 100 MHz clock, default FIFO depths,
//                  ITH off.
//   * traffic    — TrafficConfig{}: Poisson arrivals at one request per
//                  50k cycles, no SLOs, single default tenant, seed 2019.
//   * admission  — AdmissionConfig{}: transparent (quota enforcement on
//                  but no tenant carries a quota; doom/overload off).
//   * batcher    — BatcherConfig{}: batch up to 8, flush at 200k cycles,
//                  lanes bounded at 4096.
//   * scheduler  — SchedulerConfig{}: EDF over 2 shared devices,
//                  sequential host execution.
//   * power      — FpgaPowerConfig{}: the calibrated board model.
//   * watchdog   — 20e9 cycles; obs sinks null.
//
// The builder is a value: copy it to fork a baseline into variants. It
// intentionally has no behaviour beyond accumulation — build() hands the
// finished ServerConfig to serve::run, a ServerSession or a
// ClusterConfig, and every validity check stays where it always lived
// (the component constructors).
#pragma once

#include <utility>
#include <vector>

#include "serve/server.hpp"

namespace mann::serve {

class ServingOptions {
 public:
  /// Per-device accelerator config (clock, FIFOs, ITH…).
  ServingOptions& accel(accel::AccelConfig value) {
    config_.accel = std::move(value);
    return *this;
  }
  /// Arrival process + trace + SLOs + tenant registry, wholesale.
  /// tenants()/slo() below touch just their slice of it.
  ServingOptions& traffic(TrafficConfig value) {
    config_.traffic = std::move(value);
    return *this;
  }
  /// Admission policy (quotas, doom/overload shedding).
  ServingOptions& admission(AdmissionConfig value) {
    config_.admission = value;
    return *this;
  }
  ServingOptions& batcher(BatcherConfig value) {
    config_.batcher = value;
    return *this;
  }
  /// Dispatch policy block (devices, queue bound, workers, cycle cache).
  /// policy() below switches just the policy enum.
  ServingOptions& scheduler(SchedulerConfig value) {
    config_.scheduler = std::move(value);
    return *this;
  }
  ServingOptions& power(power::FpgaPowerConfig value) {
    config_.power = value;
    return *this;
  }
  ServingOptions& watchdog_cycles(sim::Cycle value) {
    config_.watchdog_cycles = value;
    return *this;
  }

  /// Tenant registry — the single source of truth every control-plane
  /// stage shares (generator shares, admission quotas/tiers, batcher
  /// lanes, WFQ weights). Empty = single default tenant.
  ServingOptions& tenants(std::vector<TenantConfig> value) {
    config_.traffic.tenants = std::move(value);
    return *this;
  }
  /// Per-task SLO deadlines stamped on every arrival.
  ServingOptions& slo(SloConfig value) {
    config_.traffic.slo = std::move(value);
    return *this;
  }
  /// Dispatch policy (kFifo / kEdf / kWfq). Under kWfq the scheduler
  /// weighs tenants by the tenant registry's weights.
  ServingOptions& policy(SchedulerPolicy value) {
    config_.scheduler.policy = value;
    return *this;
  }
  /// Metrics registry every stage publishes into (non-owning; null ok).
  ServingOptions& metrics(obs::MetricsRegistry* value) {
    config_.metrics = value;
    return *this;
  }
  /// Lifecycle/occupancy trace recorder (non-owning; null ok).
  ServingOptions& trace_recorder(obs::TraceRecorder* value) {
    config_.trace = value;
    return *this;
  }

  /// The accumulated config (validated by the component constructors at
  /// ServerSession construction, exactly as always).
  [[nodiscard]] const ServerConfig& build() const noexcept {
    return config_;
  }

 private:
  ServerConfig config_;
};

}  // namespace mann::serve
