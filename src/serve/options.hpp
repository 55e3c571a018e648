// ServingOptions: a fluent builder over ServerConfig.
//
// A chain that names only what deviates from the defaults:
//
//   serve::ServerSession session(serve::ServingOptions()
//                                    .tenants(registry)
//                                    .slo(slos)
//                                    .policy(serve::SchedulerPolicy::kEdf)
//                                    .build(),
//                                models);
//
// It carries the setters the benchmark driver (bench/e2e) chains; the
// tools, examples and tests assign ServerConfig fields directly.
// Defaults are the nested configs' own — the builder never invents any:
//   * accel      — AccelConfig{}: 100 MHz clock, default FIFO depths,
//                  ITH off.
//   * admission  — AdmissionConfig{}: transparent (quota enforcement on
//                  but no tenant carries a quota; doom/overload off).
//   * scheduler  — SchedulerConfig{}: EDF over 2 shared devices,
//                  sequential host execution.
//   * tenants    — empty: a single default tenant.
//   * slo        — SloConfig{}: no deadlines.
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
  /// Admission policy (quotas, doom/overload shedding).
  ServingOptions& admission(AdmissionConfig value) {
    config_.admission = value;
    return *this;
  }
  /// Dispatch policy block (devices, queue bound, workers, cycle cache).
  /// policy() below switches just the policy enum.
  ServingOptions& scheduler(SchedulerConfig value) {
    config_.scheduler = std::move(value);
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

  /// The accumulated config (validated by the component constructors at
  /// ServerSession construction, exactly as always).
  [[nodiscard]] const ServerConfig& build() const noexcept {
    return config_;
  }

 private:
  ServerConfig config_;
};

}  // namespace mann::serve
