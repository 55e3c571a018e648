// Tenant identity and the multi-tenant QoS policy surface.
//
// A tenant is the unit of isolation in the serving control plane: every
// request carries a TenantId, and a TenantConfig registry (one entry per
// tenant, indexed by id) declares how the stack must treat that tenant's
// traffic at each of the three control-plane stages:
//
//   * admission — a token-bucket rate quota (`quota_interarrival_cycles`
//     / `quota_burst`) bounds how fast the tenant may enter the system,
//     and the priority `tier` decides who is shed first under overload
//     (higher tier number = lower priority = shed earlier);
//   * queueing  — the batcher keeps per-(task, tenant) lanes so one
//     tenant's backlog never rides in another tenant's batches;
//   * dispatch  — the WFQ scheduler shares device slots across tenants
//     in proportion to `weight` (EDF orders work within a tenant).
//
// An empty registry means single-tenant operation: every request is
// tenant 0 and the whole control plane is transparent — exactly the
// pre-tenant serving stack.
//
// ShedReason unifies rejection accounting: every dropped request —
// whether the batcher's full-queue reject or an admission decision —
// flows through one ShedCounters path, so `ServingReport::rejected`
// totals are consistent everywhere.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "sim/types.hpp"

namespace mann::serve {

using TenantId = std::uint32_t;

/// Per-tenant QoS contract. Defaults describe a best-effort tenant with
/// no quota, unit fair share, and the task's own SLO.
struct TenantConfig {
  /// Priority tier: 0 is the most important; under overload the highest
  /// tier numbers are shed first.
  std::uint32_t tier = 0;
  /// Weighted-fair-queueing share of dispatch capacity (must be > 0).
  double weight = 1.0;
  /// Relative share of generated traffic (TrafficGenerator draw weight).
  double traffic_share = 1.0;
  /// Token-bucket rate quota: one token per admitted request, refilled
  /// every `quota_interarrival_cycles` up to `quota_burst` tokens.
  /// 0 disables the quota (the tenant is never rate-limited).
  double quota_interarrival_cycles = 0.0;
  double quota_burst = 8.0;
  /// Per-tenant SLO override, as an enqueue-to-completion deadline in
  /// cycles. 0 means "use the task's SLO"; sim::kNever means "this
  /// tenant never carries a deadline".
  sim::Cycle slo_deadline_cycles = 0;
};

/// The one check a contract passes wherever it enters the serving stack
/// (a session's registry, ServerSession::set_tenant, and the admission
/// and scheduler constructors): throws std::invalid_argument unless the
/// weight is finite and > 0, the quota interval finite and >= 0, and —
/// under a quota — the burst finite and >= 1. Each test is written so
/// that NaN fails it. traffic_share is the TrafficGenerator's check.
inline void validate_tenant(const TenantConfig& tenant) {
  if (!(tenant.weight > 0.0) || !std::isfinite(tenant.weight)) {
    throw std::invalid_argument("TenantConfig: weight must be finite and > 0");
  }
  if (!(tenant.quota_interarrival_cycles >= 0.0) ||
      !std::isfinite(tenant.quota_interarrival_cycles)) {
    throw std::invalid_argument(
        "TenantConfig: quota_interarrival_cycles must be finite and >= 0");
  }
  if (tenant.quota_interarrival_cycles > 0.0 &&
      (!(tenant.quota_burst >= 1.0) || !std::isfinite(tenant.quota_burst))) {
    throw std::invalid_argument(
        "TenantConfig: a quota needs a finite quota_burst >= 1");
  }
}

/// Why a request was shed — the single rejection-accounting vocabulary
/// shared by the admission controller, the batcher's full-queue path and
/// the serving report.
enum class ShedReason : std::uint8_t {
  kQueueFull = 0,  ///< batcher pending lane was full (legacy reject path)
  kQuota,          ///< tenant token bucket was empty
  kDoomed,         ///< deadline unmeetable per the scheduler's cost model
  kOverload,       ///< tiered load shedding above the occupancy watermark
};

inline constexpr std::size_t kShedReasonCount = 4;

[[nodiscard]] constexpr const char* shed_reason_name(
    ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kQuota:
      return "quota";
    case ShedReason::kDoomed:
      return "doomed";
    case ShedReason::kOverload:
      return "overload";
  }
  return "unknown";
}

/// Shed counts by reason (one per ShedReason enumerator).
struct ShedCounters {
  std::array<std::uint64_t, kShedReasonCount> by_reason{};

  void bump(ShedReason reason) noexcept {
    ++by_reason[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] std::uint64_t count(ShedReason reason) const noexcept {
    return by_reason[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : by_reason) {
      sum += c;
    }
    return sum;
  }
  ShedCounters& operator+=(const ShedCounters& other) noexcept {
    for (std::size_t i = 0; i < kShedReasonCount; ++i) {
      by_reason[i] += other.by_reason[i];
    }
    return *this;
  }
  [[nodiscard]] bool operator==(const ShedCounters&) const noexcept = default;
};

}  // namespace mann::serve
