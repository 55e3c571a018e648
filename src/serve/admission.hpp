// Admission controller: the first stage of the serving control plane
// (admission -> queueing -> dispatch).
//
// Sits in front of the Batcher and judges every arriving request against
// three policies, all deterministic functions of simulated state:
//
//   * quota    — a per-tenant token bucket (TenantConfig's
//                quota_interarrival_cycles / quota_burst) bounds the
//                tenant's admitted rate; a bursty tenant that exceeds its
//                contract is shed here before it can displace anyone.
//   * overload — tiered load shedding: once the stack's pending-request
//                occupancy crosses a watermark, the lowest-priority
//                tiers are shed first, with progressively higher tiers
//                shed as occupancy keeps climbing (graceful degradation
//                instead of indiscriminate queue-full drops).
//   * doom     — a request whose deadline is unmeetable even under the
//                scheduler's cost model (observed service cycles plus
//                the pool's current backlog) is shed on arrival instead
//                of burning a device slot on an answer that is already
//                late.
//
// The controller also owns the unified rejection accounting: every shed
// — including the batcher's legacy full-queue reject, which the server
// reports here — lands in one ShedReason-tagged ShedCounters path, per
// tenant and in aggregate, so ServingReport::rejected totals are
// consistent everywhere.
//
// A default-constructed AdmissionConfig is transparent (no quotas
// configured, doom shedding off, overload shedding off): the stack
// behaves exactly like the pre-admission runtime, which keeps the
// FIFO/EDF escape hatches bit-identical to their historical baselines.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/tenant.hpp"
#include "sim/types.hpp"

namespace mann::serve {

struct AdmissionConfig {
  /// Honour per-tenant token-bucket quotas (no-op for tenants without a
  /// configured quota).
  bool enforce_quotas = true;
  /// Shed requests whose deadline the cost model proves unmeetable.
  /// Off by default: it changes which requests complete, so it is an
  /// opt-in policy, not ambient behaviour.
  bool shed_doomed = false;
  /// Pending-request count treated as occupancy 1.0 by tiered overload
  /// shedding; 0 disables overload shedding entirely.
  std::size_t overload_pending_requests = 0;
  /// Occupancy at which the lowest-priority tier starts shedding; higher
  /// tiers shed at thresholds spaced evenly between here and full
  /// occupancy (tier 0 last).
  double overload_watermark = 0.75;
};

/// Snapshot of downstream state a decision is judged against. The server
/// assembles it per arrival from the batcher and the scheduler so the
/// controller itself stays a pure, separately testable policy function.
struct AdmissionOutlook {
  /// Requests pending anywhere upstream of a device (batcher lanes plus
  /// scheduler queues).
  std::size_t pending_requests = 0;
  /// Observed service cycles for the request's task (0 = not yet
  /// observed; the doom test never fires blind).
  sim::Cycle service_estimate = 0;
  /// Pool backlog normalized per device slot, in cycles.
  sim::Cycle backlog_cycles_per_device = 0;
};

class AdmissionController {
 public:
  /// `tenants` is the owner's live registry, read on every decision and
  /// never resized (empty = single default tenant that is never
  /// quota-limited and sits in tier 0); it must outlive the controller.
  /// Throws std::invalid_argument for an entry validate_tenant refuses
  /// or an overload watermark outside (0, 1]. `metrics`, when set,
  /// receives "serve.admission.*" counters (non-owning; may be null).
  AdmissionController(AdmissionConfig config,
                      std::span<const TenantConfig> tenants,
                      obs::MetricsRegistry* metrics = nullptr);

  [[nodiscard]] const AdmissionConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t num_tenants() const noexcept {
    return num_tenants_;
  }

  /// Judges an arriving request: nullopt admits it; otherwise the reason
  /// it must be shed (the caller records the shed — decide() itself only
  /// consumes quota tokens). Throws std::out_of_range for a tenant id
  /// outside the registry.
  [[nodiscard]] std::optional<ShedReason> decide(
      const InferenceRequest& request, sim::Cycle now,
      const AdmissionOutlook& outlook);

  /// Records a shed — from decide(), or discovered downstream (the
  /// batcher's full-queue reject arrives here as kQueueFull).
  void record_shed(TenantId tenant, ShedReason reason);
  /// Records a successful admission (request entered the batcher).
  void record_admitted(TenantId tenant);

  /// Live reconfiguration: the owner has validated and written registry
  /// entry `tenant` (which must exist). The token bucket keeps its
  /// refill timestamp and clamps its balance to the new burst, so a
  /// quota tightened mid-run bites immediately without ever minting
  /// retroactive credit, and the tier ceiling is recomputed.
  void set_tenant(TenantId tenant) noexcept;

  [[nodiscard]] const ShedCounters& sheds() const noexcept { return sheds_; }
  [[nodiscard]] const std::vector<ShedCounters>& tenant_sheds()
      const noexcept {
    return tenant_sheds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& tenant_admitted()
      const noexcept {
    return tenant_admitted_;
  }

 private:
  struct Bucket {
    double tokens = 0.0;
    sim::Cycle last_refill = 0;
  };

  [[nodiscard]] const TenantConfig& tenant_config(TenantId tenant) const;

  AdmissionConfig config_;
  std::span<const TenantConfig> tenants_;  ///< the owner's live registry
  std::size_t num_tenants_ = 1;
  std::uint32_t max_tier_ = 0;
  std::vector<Bucket> buckets_;
  ShedCounters sheds_;
  std::vector<ShedCounters> tenant_sheds_;
  std::vector<std::uint64_t> tenant_admitted_;
  // Mirrored obs instruments (null without a registry); shed counters
  // indexed by ShedReason.
  obs::Counter* obs_admitted_ = nullptr;
  std::array<obs::Counter*, kShedReasonCount> obs_sheds_{};
};

}  // namespace mann::serve
