// The serving stack's deterministic contracts on the trained 20-task
// suite (mann_bench_cache/, trained once by the suite_cache ctest
// fixture), at the workloads, seeds and thresholds the serving bench
// gated before its simulated checks moved here. Every number below is a
// function of the seed, so each check is exact on any host and at any
// host thread count; only the host-thread timings stay in
// bench/serve_throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"

namespace mann {
namespace {

constexpr std::size_t kTasks = 20;
constexpr std::size_t kRequests = 4000;  ///< acceptance-run request count
/// The committed 3-tenant diurnal recording (paths are relative to the
/// source root, where ctest runs these tests).
constexpr const char* kTracePath = "bench/traces/sample_diurnal.csv";

// The acceptance workload's report (bench::acceptance_config, seed 2019,
// 4000 requests) and the multi-tenant leg's, as recorded before this
// harness existed, with the tolerances the regression gate allowed.
constexpr double kBaselineStoriesPerSecond = 121'544.231617;
constexpr double kThroughputDropLimit = 0.20;
constexpr double kBaselineJoulesPerInference = 0.000658143;
constexpr double kEnergyGrowthLimit = 0.20;
constexpr double kBaselineAccuracy = 0.702;
constexpr double kBaselineDeadlineHitRate = 0.59875;
constexpr double kBaselineConformingHitRate = 0.998487;
constexpr double kHitRateDropLimit = 0.01;
constexpr double kBaselineFairness = 0.835511;
constexpr double kFairnessDropLimit = 0.05;
/// Power-of-two routing exists to balance load.
constexpr double kP2cFairnessFloor = 0.95;

/// A fleet leg's counts over the 10x diurnal trace; the legs are
/// deterministic, so any drift means routing or lockstep changed.
struct FleetCounts {
  std::uint64_t completed = 0;
  std::uint64_t router_shed = 0;
  std::uint64_t makespan_cycles = 0;
  std::size_t scale_downs = 0;
};
constexpr FleetCounts kAffinityCounts{20'000, 0, 4'047'708, 0};
constexpr FleetCounts kP2cCounts{20'000, 0, 4'104'613, 0};
constexpr FleetCounts kSpillCounts{20'000, 0, 4'065'182, 0};
constexpr FleetCounts kAutoscaledCounts{20'000, 0, 4'130'845, 4};

void expect_counts(const cluster::ClusterReport& report,
                   const FleetCounts& expected, const char* leg) {
  EXPECT_EQ(report.completed, expected.completed) << leg;
  EXPECT_EQ(report.router_shed, expected.router_shed) << leg;
  EXPECT_EQ(report.makespan_cycles, expected.makespan_cycles) << leg;
  EXPECT_EQ(report.scale_downs, expected.scale_downs) << leg;
}

// ctest runs this alone as the suite_cache fixture before any test that
// loads the suite, so a clean run trains the 20 models once rather than
// once per test process.
TEST(SuiteCache, Prepare) {
  EXPECT_EQ(bench::load_suite().size(), kTasks);
  EXPECT_TRUE(runtime::suite_cache_complete(bench::suite_config(),
                                            "mann_bench_cache"));
}

class ServingContracts : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    suite_ = new std::vector<runtime::TaskArtifacts>(bench::load_suite());
    models_ =
        new std::vector<serve::ServedModel>(bench::served_models(*suite_));
  }

  static void TearDownTestSuite() {
    delete models_;
    delete suite_;
    models_ = nullptr;
    suite_ = nullptr;
  }

  static serve::ServingReport run_server(const serve::ServerConfig& config,
                                         std::size_t requests) {
    return serve::run(config, *models_, requests);
  }

  static cluster::ClusterReport run_fleet(
      const cluster::ClusterConfig& config, std::size_t requests) {
    return cluster::Cluster(config, *models_).run(requests);
  }

  /// The diurnal recording replayed by one 8-device instance.
  static serve::ServerConfig diurnal_instance() {
    return bench::trace_replay_config(serve::load_trace_csv(kTracePath),
                                      kTasks);
  }

  static std::vector<runtime::TaskArtifacts>* suite_;
  static std::vector<serve::ServedModel>* models_;
};

std::vector<runtime::TaskArtifacts>* ServingContracts::suite_ = nullptr;
std::vector<serve::ServedModel>* ServingContracts::models_ = nullptr;

TEST_F(ServingContracts, PoolScalingRaisesThroughputAtEqualAccuracy) {
  // Saturating load (400 requests every 500 cycles, B=8): 4 devices
  // serve > 1.5x the stories/s of 1 with identical answers and no p99
  // growth.
  serve::ServerConfig config;
  config.traffic.mean_interarrival_cycles = 500.0;
  config.scheduler.devices = 1;
  const serve::ServingReport one = run_server(config, 400);
  config.scheduler.devices = 4;
  const serve::ServingReport four = run_server(config, 400);
  EXPECT_GT(four.throughput_stories_per_second /
                one.throughput_stories_per_second,
            1.5);
  EXPECT_EQ(four.accuracy, one.accuracy);
  EXPECT_LE(four.latency.p99_cycles, one.latency.p99_cycles);
}

TEST_F(ServingContracts, EdfMeetsFifoDeadlinesAtEqualAccuracy) {
  // FIFO head-of-line vs EDF + stealing on a fully sharded pool under
  // bursty load with mixed 3/30 ms SLOs: EDF meets at least as many
  // deadlines at no worse p99, from reordering alone (same answers, same
  // completions), and workers do not move its timeline.
  serve::ServerConfig config;
  config.scheduler.devices = 4;
  config.scheduler.dedicated_devices = 4;
  config.traffic.process = serve::ArrivalProcess::kBursty;
  config.traffic.mean_interarrival_cycles = 2'000.0;
  config.traffic.slo.per_task = bench::mixed_slos(kTasks);
  config.scheduler.policy = serve::SchedulerPolicy::kFifo;
  const serve::ServingReport fifo = run_server(config, kRequests);
  config.scheduler.policy = serve::SchedulerPolicy::kEdf;
  const serve::ServingReport edf = run_server(config, kRequests);
  config.scheduler.workers = 4;
  const serve::ServingReport edf_workers = run_server(config, kRequests);

  EXPECT_GE(edf.deadline_hit_rate, fifo.deadline_hit_rate);
  EXPECT_LE(edf.latency.p99_cycles, fifo.latency.p99_cycles);
  EXPECT_EQ(edf.accuracy, fifo.accuracy);
  EXPECT_EQ(edf.completed, fifo.completed);
  EXPECT_TRUE(serve::simulated_reports_identical(edf, edf_workers));
}

TEST_F(ServingContracts, TraceReplayIsWorkerInvariant) {
  serve::ServerConfig config = diurnal_instance();
  config.scheduler.devices = 4;
  config.scheduler.dedicated_devices = 4;
  const std::size_t requests = config.traffic.trace.size();
  const serve::ServingReport sequential = run_server(config, requests);
  config.scheduler.workers = 4;
  const serve::ServingReport workers = run_server(config, requests);
  EXPECT_TRUE(serve::simulated_reports_identical(sequential, workers));
}

TEST_F(ServingContracts, AcceptanceWorkloadHoldsItsBaseline) {
  const serve::ServingReport r =
      run_server(bench::acceptance_config(kTasks), kRequests);
  EXPECT_GE(r.throughput_stories_per_second,
            (1.0 - kThroughputDropLimit) * kBaselineStoriesPerSecond);
  EXPECT_LE(r.energy.per_inference_joules,
            (1.0 + kEnergyGrowthLimit) * kBaselineJoulesPerInference);
  EXPECT_GE(r.accuracy, kBaselineAccuracy - 1e-9);
  EXPECT_GE(r.deadline_hit_rate,
            kBaselineDeadlineHitRate - kHitRateDropLimit);
}

/// Worst deadline hit-rate of the conforming tenants (0 and 1).
double conforming_hit_rate(const serve::ServingReport& report) {
  double worst = 1.0;
  for (const serve::TenantReport& tenant : report.tenants) {
    if (tenant.tenant <= 1) {
      worst = std::min(worst, tenant.hit_rate());
    }
  }
  return worst;
}

TEST_F(ServingContracts, AdmissionAndWfqShieldConformingTenants) {
  // Bursty overload from three tenants: two conforming ones (tier 0,
  // weight 4; tier 1, weight 2) and a flood offering 4x their traffic
  // while its quota entitles it to about a fifth of that.
  std::vector<serve::TenantConfig> tenants(3);
  tenants[0].tier = 0;
  tenants[0].weight = 4.0;
  tenants[1].tier = 1;
  tenants[1].weight = 2.0;
  tenants[2].tier = 2;
  tenants[2].weight = 1.0;
  tenants[2].traffic_share = 4.0;
  tenants[2].quota_interarrival_cycles = 8'000.0;
  tenants[2].quota_burst = 16.0;
  serve::ServerConfig config;
  config.scheduler.devices = 4;
  config.scheduler.dedicated_devices = 4;
  config.traffic.process = serve::ArrivalProcess::kBursty;
  config.traffic.mean_interarrival_cycles = 1'200.0;
  config.traffic.slo.per_task = bench::mixed_slos(kTasks);
  config.traffic.tenants = tenants;

  // Plain EDF with transparent admission lets the flood through.
  config.admission.enforce_quotas = false;
  const serve::ServingReport edf = run_server(config, kRequests);
  // Quotas, doom and tiered overload shedding, WFQ dispatch.
  config.scheduler.policy = serve::SchedulerPolicy::kWfq;
  config.admission.enforce_quotas = true;
  config.admission.shed_doomed = true;
  config.admission.overload_pending_requests = 1'024;
  config.admission.overload_watermark = 0.70;
  const serve::ServingReport wfq = run_server(config, kRequests);
  config.scheduler.workers = 4;
  const serve::ServingReport wfq_workers = run_server(config, kRequests);

  EXPECT_GE(conforming_hit_rate(wfq), 0.99);
  EXPECT_GE(conforming_hit_rate(wfq), conforming_hit_rate(edf));
  EXPECT_GE(conforming_hit_rate(wfq),
            kBaselineConformingHitRate - kHitRateDropLimit);
  EXPECT_GE(wfq.fairness_index, kBaselineFairness - kFairnessDropLimit);
  // Protection must not be bought by shedding the conforming tenants:
  // their traffic sits inside quota and below the watermark, and a shed
  // request never reaches the hit-rate.
  for (const serve::TenantReport& tenant : wfq.tenants) {
    if (tenant.tenant <= 1) {
      EXPECT_EQ(tenant.shed.total(), 0U) << "tenant " << tenant.tenant;
    }
  }
  EXPECT_TRUE(serve::simulated_reports_identical(wfq, wfq_workers));
  EXPECT_EQ(wfq.tenants, wfq_workers.tenants);
}

TEST_F(ServingContracts, TracingLeavesTheSimulationUntouched) {
  serve::ServerConfig config = bench::acceptance_config(kTasks);
  config.scheduler.workers = 4;
  const serve::ServingReport untraced = run_server(config, kRequests);
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  config.metrics = &registry;
  config.trace = &recorder;
  const serve::ServingReport traced = run_server(config, kRequests);

  EXPECT_TRUE(serve::simulated_reports_identical(untraced, traced));
  EXPECT_GT(recorder.event_count(), 0U);
  const std::string path =
      ::testing::TempDir() + "/serving_contracts_trace.json";
  EXPECT_TRUE(obs::write_chrome_trace(path, recorder, config.accel.clock_hz,
                                      &registry));
  std::filesystem::remove(path);
}

TEST_F(ServingContracts, ClusterOfOneIsTheBareServer) {
  const serve::ServerConfig instance = diurnal_instance();
  const std::size_t requests = instance.traffic.trace.size();
  cluster::ClusterConfig single;
  single.instances = 1;
  single.server = instance;
  const cluster::ClusterReport one = run_fleet(single, requests);
  ASSERT_EQ(one.instance_reports.size(), 1U);
  EXPECT_TRUE(serve::simulated_reports_identical(
      run_server(instance, requests), one.instance_reports[0].report));
}

TEST_F(ServingContracts, FleetRoutingAndAutoscalingKeepTheirTrades) {
  // The diurnal trace at 10x over 4 instances: the peak queues and the
  // trough idles, the regime where routing trades and parking pay.
  cluster::ClusterConfig fleet = bench::fleet_config(diurnal_instance(), 10);
  // Every leg steps its instances on 4 fleet threads over one cycle
  // cache sharded 8 ways, as the bench ran them when it pinned these
  // counts. Both are host-side only: the counts hold at any thread count.
  fleet.fleet_threads = 4;
  fleet.cache_segments = 8;
  const std::vector<serve::TraceEntry>& trace = fleet.server.traffic.trace;
  const std::size_t requests = trace.size();
  fleet.router.kind = cluster::RouterPolicyKind::kTaskAffinity;
  const cluster::ClusterReport affinity = run_fleet(fleet, requests);
  fleet.router.kind = cluster::RouterPolicyKind::kTenantSpill;
  const cluster::ClusterReport spill = run_fleet(fleet, requests);
  fleet.router.kind = cluster::RouterPolicyKind::kPowerOfTwo;
  const cluster::ClusterReport p2c = run_fleet(fleet, requests);
  // Thresholds from the trace itself: 16 epochs over its span, with up
  // and down bracketing the mean arrivals per instance per epoch.
  constexpr std::size_t kEpochs = 16;
  const double mean_per_instance =
      static_cast<double>(requests) /
      static_cast<double>(kEpochs * fleet.instances);
  fleet.autoscaler.enabled = true;
  fleet.autoscaler.epoch_cycles = std::max<sim::Cycle>(
      1, (trace.back().arrival_cycle + 1) / kEpochs);
  fleet.autoscaler.up_arrivals_per_instance = 1.25 * mean_per_instance;
  fleet.autoscaler.down_arrivals_per_instance = 0.75 * mean_per_instance;
  fleet.autoscaler.cooldown_epochs = 0;
  fleet.autoscaler.min_instances = 1;
  const cluster::ClusterReport autoscaled = run_fleet(fleet, requests);

  // Affinity keeps models resident, p2c balances queues: at least one
  // side of that trade must hold.
  EXPECT_TRUE(p2c.queue_wait.p99_cycles <= affinity.queue_wait.p99_cycles ||
              affinity.warm_dispatch_rate >= p2c.warm_dispatch_rate);
  EXPECT_GE(p2c.instance_fairness, kP2cFairnessFloor);
  // Parking instances through the trough must save energy.
  EXPECT_LT(autoscaled.energy.per_inference_joules,
            p2c.energy.per_inference_joules);
  EXPECT_GE(autoscaled.scale_downs, 1U);
  expect_counts(affinity, kAffinityCounts, "task_affinity");
  expect_counts(p2c, kP2cCounts, "power_of_two");
  expect_counts(spill, kSpillCounts, "tenant_spill");
  expect_counts(autoscaled, kAutoscaledCounts, "autoscaled");
}

}  // namespace
}  // namespace mann
