#include "serve/admission.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mann::serve {

namespace {
/// The contract of tenant 0 when the registry is empty.
const TenantConfig kDefaultTenant{};
}  // namespace

AdmissionController::AdmissionController(AdmissionConfig config,
                                         std::span<const TenantConfig> tenants,
                                         obs::MetricsRegistry* metrics)
    : config_(config), tenants_(tenants) {
  num_tenants_ = tenants_.empty() ? 1 : tenants_.size();
  obs_admitted_ = obs::counter(metrics, "serve.admission.admitted");
  if (metrics != nullptr) {
    for (std::size_t r = 0; r < kShedReasonCount; ++r) {
      obs_sheds_[r] = &metrics->counter(
          std::string("serve.admission.shed.") +
          shed_reason_name(static_cast<ShedReason>(r)));
    }
  }
  for (const TenantConfig& tenant : tenants_) {
    validate_tenant(tenant);
    max_tier_ = std::max(max_tier_, tenant.tier);
  }
  if (config_.overload_watermark <= 0.0 || config_.overload_watermark > 1.0) {
    throw std::invalid_argument(
        "AdmissionController: overload_watermark must sit in (0, 1]");
  }
  // Buckets start full: a tenant may spend its whole burst at cycle 0.
  buckets_.resize(num_tenants_);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    buckets_[i].tokens = tenants_[i].quota_burst;
  }
  tenant_sheds_.resize(num_tenants_);
  tenant_admitted_.resize(num_tenants_, 0);
}

const TenantConfig& AdmissionController::tenant_config(
    TenantId tenant) const {
  if (tenant >= num_tenants_) {
    throw std::out_of_range("AdmissionController: tenant " +
                            std::to_string(tenant) + " outside the " +
                            std::to_string(num_tenants_) +
                            "-entry registry");
  }
  return tenants_.empty() ? kDefaultTenant : tenants_[tenant];
}

std::optional<ShedReason> AdmissionController::decide(
    const InferenceRequest& request, sim::Cycle now,
    const AdmissionOutlook& outlook) {
  const TenantConfig& tenant = tenant_config(request.tenant);

  // Tiered overload shedding: the lowest-priority tier (highest tier
  // number) sheds at the watermark; each more important tier holds on
  // until occupancy climbs another even step toward 1.0 — so degradation
  // under overload is graceful and strictly priority-ordered.
  if (config_.overload_pending_requests > 0) {
    const double occupancy =
        static_cast<double>(outlook.pending_requests) /
        static_cast<double>(config_.overload_pending_requests);
    const double threshold =
        config_.overload_watermark +
        (1.0 - config_.overload_watermark) *
            (static_cast<double>(max_tier_ - tenant.tier) /
             static_cast<double>(max_tier_ + 1));
    if (occupancy >= threshold) {
      return ShedReason::kOverload;
    }
  }

  // Doom shedding: if even the cost model's estimate — now plus the
  // observed service cycles plus the per-device backlog — lands past the
  // deadline, the request can only complete late; shed it now instead of
  // spending device time on it. Computed in doubles so a pathological
  // backlog cannot overflow the cycle arithmetic.
  if (config_.shed_doomed && request.deadline_cycle != sim::kNever &&
      outlook.service_estimate > 0) {
    const double eta =
        static_cast<double>(now) +
        static_cast<double>(outlook.service_estimate) +
        static_cast<double>(outlook.backlog_cycles_per_device);
    if (eta > static_cast<double>(request.deadline_cycle)) {
      return ShedReason::kDoomed;
    }
  }

  // Token-bucket quota, checked last so a shed for overload/doom never
  // burns a token. Admission spends the token even if the batcher later
  // rejects on a full lane — a full queue is itself overload, and the
  // attempt counted against the tenant's rate contract.
  if (config_.enforce_quotas && tenant.quota_interarrival_cycles > 0.0) {
    Bucket& bucket = buckets_[request.tenant];
    const sim::Cycle elapsed = now - bucket.last_refill;
    bucket.last_refill = now;
    bucket.tokens = std::min(
        tenant.quota_burst,
        bucket.tokens + static_cast<double>(elapsed) /
                            tenant.quota_interarrival_cycles);
    if (bucket.tokens < 1.0) {
      return ShedReason::kQuota;
    }
    bucket.tokens -= 1.0;
  }

  return std::nullopt;
}

void AdmissionController::set_tenant(TenantId tenant) noexcept {
  // Tiers may have moved in either direction; recompute the ceiling the
  // tiered-overload thresholds are spaced against.
  max_tier_ = 0;
  for (const TenantConfig& t : tenants_) {
    max_tier_ = std::max(max_tier_, t.tier);
  }
  // Keep the bucket's refill clock but bound the balance by the new
  // burst: a tightened quota must not be pre-funded by the old one.
  Bucket& bucket = buckets_[tenant];
  bucket.tokens = std::min(bucket.tokens, tenants_[tenant].quota_burst);
}

void AdmissionController::record_shed(TenantId tenant, ShedReason reason) {
  (void)tenant_config(tenant);  // bounds check
  sheds_.bump(reason);
  tenant_sheds_[tenant].bump(reason);
  obs::add(obs_sheds_[static_cast<std::size_t>(reason)]);
}

void AdmissionController::record_admitted(TenantId tenant) {
  (void)tenant_config(tenant);  // bounds check
  ++tenant_admitted_[tenant];
  obs::add(obs_admitted_);
}

}  // namespace mann::serve
