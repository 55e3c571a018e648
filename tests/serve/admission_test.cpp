// The admission controller: token-bucket quotas, tiered overload
// shedding, doom shedding against the cost-model outlook, and the
// unified ShedReason accounting.
#include "serve/admission.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::make_request;
using testing::tiny_stories;

InferenceRequest tenant_request(TenantId tenant, sim::Cycle enqueue,
                                const data::EncodedStory& story,
                                sim::Cycle deadline = sim::kNever) {
  InferenceRequest request = make_request(0, 0, story, enqueue);
  request.tenant = tenant;
  request.deadline_cycle = deadline;
  return request;
}

TEST(Admission, TransparentByDefault) {
  // Empty registry + default config: everything is admitted, forever.
  AdmissionController admission(AdmissionConfig{}, {});
  const auto stories = tiny_stories(1);
  AdmissionOutlook outlook;
  outlook.pending_requests = 1'000'000;  // even absurd backlog
  outlook.service_estimate = 1'000'000;
  outlook.backlog_cycles_per_device = 1'000'000;
  for (sim::Cycle t = 0; t < 64; ++t) {
    EXPECT_EQ(admission.decide(tenant_request(0, t, stories[0], t + 1), t,
                               outlook),
              std::nullopt);
    admission.record_admitted(0);
  }
  EXPECT_EQ(admission.sheds().total(), 0U);
  EXPECT_EQ(admission.tenant_admitted()[0], 64U);
}

TEST(Admission, TokenBucketQuotaRefillsOverTime) {
  std::vector<TenantConfig> tenants(1);
  tenants[0].quota_interarrival_cycles = 100.0;
  tenants[0].quota_burst = 2.0;
  AdmissionController admission(AdmissionConfig{}, tenants);
  const auto stories = tiny_stories(1);
  const AdmissionOutlook outlook;

  // The bucket starts full: the whole burst is admitted at cycle 0...
  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0]), 0, outlook),
            std::nullopt);
  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0]), 0, outlook),
            std::nullopt);
  // ...then the third request in the same cycle is over quota.
  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0]), 0, outlook),
            ShedReason::kQuota);
  // Half a token at +50 cycles: still shed.
  EXPECT_EQ(admission.decide(tenant_request(0, 50, stories[0]), 50, outlook),
            ShedReason::kQuota);
  // A full token has accrued by +150 (the +50 probe consumed nothing).
  EXPECT_EQ(
      admission.decide(tenant_request(0, 150, stories[0]), 150, outlook),
      std::nullopt);
}

TEST(Admission, QuotaIsPerTenant) {
  std::vector<TenantConfig> tenants(2);
  tenants[0].quota_interarrival_cycles = 1'000.0;
  tenants[0].quota_burst = 1.0;
  // Tenant 1 has no quota at all.
  AdmissionController admission(AdmissionConfig{}, tenants);
  const auto stories = tiny_stories(1);
  const AdmissionOutlook outlook;

  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0]), 0, outlook),
            std::nullopt);
  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0]), 0, outlook),
            ShedReason::kQuota);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(admission.decide(tenant_request(1, 0, stories[0]), 0, outlook),
              std::nullopt);
  }
}

TEST(Admission, QuotasCanBeDisabled) {
  std::vector<TenantConfig> tenants(1);
  tenants[0].quota_interarrival_cycles = 1'000.0;
  tenants[0].quota_burst = 1.0;
  AdmissionConfig config;
  config.enforce_quotas = false;
  AdmissionController admission(config, tenants);
  const auto stories = tiny_stories(1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0]), 0, {}),
              std::nullopt);
  }
}

TEST(Admission, OverloadShedsLowestTierFirst) {
  // Tiers 0/1/2 with watermark 0.5: thresholds sit at 0.5 (tier 2),
  // 2/3 (tier 1) and 5/6 (tier 0) — lowest priority sheds first, and
  // more important tiers hold on as occupancy climbs.
  std::vector<TenantConfig> tenants(3);
  tenants[0].tier = 0;
  tenants[1].tier = 1;
  tenants[2].tier = 2;
  AdmissionConfig config;
  config.overload_pending_requests = 600;
  config.overload_watermark = 0.5;
  AdmissionController admission(config, tenants);
  const auto stories = tiny_stories(1);

  const auto decide_at = [&](TenantId tenant, std::size_t pending) {
    AdmissionOutlook outlook;
    outlook.pending_requests = pending;
    return admission.decide(tenant_request(tenant, 0, stories[0]), 0,
                            outlook);
  };

  // Below the watermark everyone is admitted.
  for (TenantId t = 0; t < 3; ++t) {
    EXPECT_EQ(decide_at(t, 299), std::nullopt);
  }
  // At occupancy 0.5 only tier 2 sheds.
  EXPECT_EQ(decide_at(2, 300), ShedReason::kOverload);
  EXPECT_EQ(decide_at(1, 300), std::nullopt);
  EXPECT_EQ(decide_at(0, 300), std::nullopt);
  // At occupancy 0.7 tiers 1 and 2 shed; tier 0 still holds.
  EXPECT_EQ(decide_at(2, 420), ShedReason::kOverload);
  EXPECT_EQ(decide_at(1, 420), ShedReason::kOverload);
  EXPECT_EQ(decide_at(0, 420), std::nullopt);
  // Past tier 0's 5/6 threshold even the top tier degrades.
  EXPECT_EQ(decide_at(0, 550), ShedReason::kOverload);
}

TEST(Admission, DoomShedsOnlyProvablyLateRequests) {
  std::vector<TenantConfig> tenants(1);
  AdmissionConfig config;
  config.shed_doomed = true;
  AdmissionController admission(config, tenants);
  const auto stories = tiny_stories(1);

  AdmissionOutlook outlook;
  outlook.service_estimate = 1'000;
  outlook.backlog_cycles_per_device = 0;
  // Deadline 500 cycles out, service alone takes 1000: doomed.
  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0], 500), 0,
                             outlook),
            ShedReason::kDoomed);
  // Deadline 1500 out: meetable.
  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0], 1'500), 0,
                             outlook),
            std::nullopt);
  // Backlog pushes the ETA past the deadline.
  outlook.backlog_cycles_per_device = 1'000;
  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0], 1'500), 0,
                             outlook),
            ShedReason::kDoomed);
  // No deadline: never doomed.
  EXPECT_EQ(
      admission.decide(tenant_request(0, 0, stories[0]), 0, outlook),
      std::nullopt);
  // No service observation yet: the doom test never fires blind.
  outlook.service_estimate = 0;
  EXPECT_EQ(admission.decide(tenant_request(0, 0, stories[0], 1), 0,
                             outlook),
            std::nullopt);
}

TEST(Admission, UnifiedShedAccounting) {
  std::vector<TenantConfig> tenants(2);
  AdmissionController admission(AdmissionConfig{}, tenants);
  admission.record_shed(0, ShedReason::kQueueFull);
  admission.record_shed(0, ShedReason::kQueueFull);
  admission.record_shed(1, ShedReason::kQuota);
  admission.record_admitted(1);

  EXPECT_EQ(admission.sheds().total(), 3U);
  EXPECT_EQ(admission.sheds().count(ShedReason::kQueueFull), 2U);
  EXPECT_EQ(admission.sheds().count(ShedReason::kQuota), 1U);
  EXPECT_EQ(admission.tenant_sheds()[0].total(), 2U);
  EXPECT_EQ(admission.tenant_sheds()[1].count(ShedReason::kQuota), 1U);
  EXPECT_EQ(admission.tenant_admitted()[0], 0U);
  EXPECT_EQ(admission.tenant_admitted()[1], 1U);
}

TEST(Admission, ValidatesConfigAndTenantIds) {
  std::vector<TenantConfig> bad_quota(1);
  bad_quota[0].quota_interarrival_cycles = -1.0;
  EXPECT_THROW(AdmissionController(AdmissionConfig{}, bad_quota),
               std::invalid_argument);

  std::vector<TenantConfig> bad_burst(1);
  bad_burst[0].quota_interarrival_cycles = 100.0;
  bad_burst[0].quota_burst = 0.5;  // a quota that can never admit
  EXPECT_THROW(AdmissionController(AdmissionConfig{}, bad_burst),
               std::invalid_argument);

  AdmissionConfig bad_watermark;
  bad_watermark.overload_watermark = 0.0;
  EXPECT_THROW(AdmissionController(bad_watermark, {}),
               std::invalid_argument);

  AdmissionController admission(AdmissionConfig{}, {});
  const auto stories = tiny_stories(1);
  EXPECT_THROW(
      (void)admission.decide(tenant_request(5, 0, stories[0]), 0, {}),
      std::out_of_range);
  EXPECT_THROW(admission.record_shed(5, ShedReason::kQuota),
               std::out_of_range);
}

}  // namespace
}  // namespace mann::serve
