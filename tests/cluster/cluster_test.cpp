// Cluster: the fleet-level determinism contract. A cluster of one is
// bit-identical to serve::run() on every simulated report field; the
// host worker count and the fleet-thread count change nothing about
// routing, the per-instance timelines, or the merged completion stream;
// that stream is a (cycle, id)-sorted ledger over disjoint id ranges;
// and an autoscaled fleet beats a fixed one on fleet energy for a
// bursty-then-quiet (diurnal) schedule.
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/outcome.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"
#include "../serve/serve_test_util.hpp"

namespace mann::cluster {
namespace {

using serve::testing::tiny_program;
using serve::testing::tiny_stories;

std::vector<serve::ServedModel> two_models(
    const std::vector<data::EncodedStory>& stories) {
  std::vector<serve::ServedModel> models;
  models.push_back({tiny_program(7), stories});
  models.push_back({tiny_program(8), stories});
  return models;
}

/// The serving tests' fixed schedule: bursts plus a sparse tail.
std::vector<serve::TraceEntry> fixed_trace() {
  std::vector<serve::TraceEntry> trace;
  const sim::Cycle bases[] = {1'000, 1'000, 1'200, 40'000, 40'000,
                              41'000, 90'000, 400'000, 400'100, 900'000};
  for (std::size_t i = 0; i < std::size(bases); ++i) {
    serve::TraceEntry entry;
    entry.arrival_cycle = bases[i];
    entry.task = i % 2;
    entry.tenant = static_cast<serve::TenantId>(i % 3);
    trace.push_back(entry);
  }
  return trace;
}

serve::ServerConfig server_config(const std::vector<serve::TraceEntry>& trace) {
  serve::ServerConfig config;
  config.batcher.max_batch = 4;
  config.batcher.max_wait_cycles = 30'000;
  config.scheduler.devices = 2;
  config.traffic.slo.default_deadline_cycles = 600'000;
  config.traffic.tenants.resize(3);
  if (!trace.empty()) {
    config.traffic.process = serve::ArrivalProcess::kTrace;
    config.traffic.trace = trace;
  }
  return config;
}

ClusterConfig cluster_config(std::size_t instances,
                             const std::vector<serve::TraceEntry>& trace,
                             RouterPolicyKind kind) {
  ClusterConfig config;
  config.instances = instances;
  config.server = server_config(trace);
  config.router.kind = kind;
  return config;
}

TEST(Cluster, ClusterOfOneIsBitIdenticalToABareServer) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  struct Input {
    std::vector<serve::TraceEntry> trace;
    sim::Cycle max_wait_cycles;
    double max_queue_wait;  ///< checked when > 0
  };
  const Input inputs[] = {
      // 4x the fixed schedule: enough completions that a percentile rule
      // off by one rank shows in the merged summary.
      {serve::scale_trace(fixed_trace(), 4, 2019), 30'000, 0.0},
      // A lone first request ages in the batcher for 16,778,259 cycles,
      // past 2^24, where a float sample would round its wait to
      // 16,778,260.
      {{{0, 0, 0}, {20'000'000, 1, 0}}, 16'778'259, 16'778'259.0},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE("max_wait_cycles " + std::to_string(input.max_wait_cycles));
    const auto& trace = input.trace;
    ClusterConfig config =
        cluster_config(1, trace, RouterPolicyKind::kPowerOfTwo);
    config.server.batcher.max_wait_cycles = input.max_wait_cycles;
    const serve::ServingReport bare =
        serve::run(config.server, models, trace.size());

    Cluster cluster(config, models);
    const ClusterReport report = cluster.run(trace.size());

    ASSERT_EQ(report.instance_reports.size(), 1u);
    EXPECT_TRUE(serve::simulated_reports_identical(
        bare, report.instance_reports[0].report));
    EXPECT_EQ(report.offered, trace.size());
    EXPECT_EQ(report.router_shed, 0u);
    EXPECT_EQ(report.completed, bare.completed);
    EXPECT_EQ(report.makespan_cycles, bare.makespan_cycles);
    EXPECT_EQ(report.instance_reports[0].routed, trace.size());
    // The fleet's merged summary reads like its only instance's.
    for (const auto& [fleet, own] :
         {std::pair{report.latency, bare.latency},
          std::pair{report.queue_wait, bare.queue_wait}}) {
      EXPECT_EQ(fleet.mean_cycles, own.mean_cycles);
      EXPECT_EQ(fleet.p50_cycles, own.p50_cycles);
      EXPECT_EQ(fleet.p95_cycles, own.p95_cycles);
      EXPECT_EQ(fleet.p99_cycles, own.p99_cycles);
      EXPECT_EQ(fleet.max_cycles, own.max_cycles);
    }
    if (input.max_queue_wait > 0.0) {
      EXPECT_EQ(bare.queue_wait.max_cycles, input.max_queue_wait);
    }
  }
}

TEST(Cluster, HostWorkerCountChangesNeitherRoutingNorTimelines) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  // 4x the fixed schedule so four instances all see traffic.
  const auto trace = serve::scale_trace(fixed_trace(), 4, 2019);

  std::vector<ClusterReport> reports;
  for (const std::size_t workers : {0u, 2u, 4u}) {
    ClusterConfig config =
        cluster_config(4, trace, RouterPolicyKind::kPowerOfTwo);
    config.server.scheduler.workers = workers;
    Cluster cluster(config, models);
    reports.push_back(cluster.run(trace.size()));
  }

  const ClusterReport& serial = reports.front();
  EXPECT_EQ(serial.offered, trace.size());
  for (std::size_t r = 1; r < reports.size(); ++r) {
    const ClusterReport& parallel = reports[r];
    EXPECT_EQ(parallel.completed, serial.completed);
    EXPECT_EQ(parallel.router_shed, serial.router_shed);
    EXPECT_EQ(parallel.makespan_cycles, serial.makespan_cycles);
    EXPECT_DOUBLE_EQ(parallel.energy.total_joules,
                     serial.energy.total_joules);
    EXPECT_DOUBLE_EQ(parallel.latency.p99_cycles, serial.latency.p99_cycles);
    EXPECT_DOUBLE_EQ(parallel.queue_wait.p99_cycles,
                     serial.queue_wait.p99_cycles);
    ASSERT_EQ(parallel.instance_reports.size(),
              serial.instance_reports.size());
    for (std::size_t i = 0; i < serial.instance_reports.size(); ++i) {
      // Byte-identical assignment: each instance served the exact same
      // request set, so its whole simulated timeline matches.
      EXPECT_EQ(parallel.instance_reports[i].routed,
                serial.instance_reports[i].routed)
          << "instance " << i << " routed diverged at workers run " << r;
      EXPECT_TRUE(serve::simulated_reports_identical(
          parallel.instance_reports[i].report,
          serial.instance_reports[i].report))
          << "instance " << i << " report diverged at workers run " << r;
    }
  }
}

TEST(Cluster, FleetThreadCountChangesNoSimulatedReportField) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  // 4x the fixed schedule so four instances all see traffic.
  const auto trace = serve::scale_trace(fixed_trace(), 4, 2019);

  // Every routing tier: power-of-two; task affinity; tenant spill with a
  // low saturation threshold, so the opening burst spills past its three
  // tenant homes onto instance 3; power-of-two with the autoscaler
  // parking through the quiet tail.
  const ClusterConfig p2c =
      cluster_config(4, trace, RouterPolicyKind::kPowerOfTwo);
  const ClusterConfig affinity =
      cluster_config(4, trace, RouterPolicyKind::kTaskAffinity);
  ClusterConfig spill =
      cluster_config(4, trace, RouterPolicyKind::kTenantSpill);
  spill.router.spill_queue_threshold = 2;
  ClusterConfig autoscaled = p2c;
  autoscaled.autoscaler.enabled = true;
  autoscaled.autoscaler.epoch_cycles = 100'000;
  autoscaled.autoscaler.up_arrivals_per_instance = 20.0;
  autoscaled.autoscaler.down_arrivals_per_instance = 5.0;
  autoscaled.autoscaler.cooldown_epochs = 0;

  const auto run = [&](ClusterConfig config, std::size_t threads) {
    config.fleet_threads = threads;
    // Exercise the fleet-shared sharded cache in every run: concurrent
    // instances hitting the same segments must not perturb anything.
    config.cache_segments = 4;
    Cluster cluster(config, models);
    return cluster.run(trace.size());
  };
  for (const ClusterConfig& fleet : {p2c, affinity, spill, autoscaled}) {
    const ClusterReport sequential = run(fleet, 0);
    EXPECT_EQ(sequential.offered, trace.size());
    for (const std::size_t threads : {1u, 2u, 4u}) {
      EXPECT_TRUE(simulated_cluster_reports_identical(sequential,
                                                      run(fleet, threads)))
          << sequential.policy
          << (fleet.autoscaler.enabled ? " autoscaled" : "")
          << " fleet report diverged at " << threads << " fleet threads";
    }
  }
  EXPECT_GT(run(spill, 0).instance_reports[3].routed, 0u);
  EXPECT_GE(run(autoscaled, 0).scale_downs, 1u);
}

TEST(Cluster, MergedStreamIsByteIdenticalAcrossFleetThreadCounts) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);

  // (cycle, id, instance) tuples in poll order — the full observable
  // completion ledger, live windows and drain tail alike.
  using Tuple = std::tuple<sim::Cycle, std::uint64_t, InstanceId>;
  const auto run_stream = [&](std::size_t threads) {
    ClusterConfig config =
        cluster_config(4, {}, RouterPolicyKind::kPowerOfTwo);
    config.fleet_threads = threads;
    config.cache_segments = threads > 1 ? 2 * threads : 1;
    Cluster cluster(config, models);
    std::vector<Tuple> stream;
    const auto drain_window = [&] {
      for (const ClusterCompletion& c : cluster.poll_completions()) {
        stream.emplace_back(c.completion.cycle, c.completion.response.id,
                            c.instance);
      }
    };
    constexpr std::size_t kRequests = 30;
    for (std::size_t i = 0; i < kRequests; ++i) {
      serve::SubmitRequest request;
      request.task = i % 2;
      request.tenant = static_cast<serve::TenantId>(i % 3);
      request.at_cycle = 1'000 + static_cast<sim::Cycle>(i) * 2'000;
      (void)cluster.submit(request);
      (void)cluster.step_until(cluster.last_submitted_arrival());
      drain_window();
    }
    cluster.drain();
    (void)cluster.step_until(sim::kNever);
    drain_window();
    return stream;
  };

  const std::vector<Tuple> sequential = run_stream(0);
  EXPECT_EQ(sequential.size(), 30u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    EXPECT_EQ(run_stream(threads), sequential)
        << "merged stream diverged at " << threads << " fleet threads";
  }
}

TEST(Cluster, TaskAffinityKeepsEachTaskOnOneInstance) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  const auto trace = serve::scale_trace(fixed_trace(), 3, 7);

  Cluster cluster(cluster_config(4, trace, RouterPolicyKind::kTaskAffinity),
                  models);
  const ClusterReport report = cluster.run(trace.size());

  // Two tasks under consistent hashing touch at most two instances
  // (uncontended: the light fixed schedule never saturates an owner).
  std::size_t instances_touched = 0;
  for (const InstanceReport& instance : report.instance_reports) {
    instances_touched += instance.routed > 0 ? 1 : 0;
  }
  EXPECT_LE(instances_touched, 2u);
  EXPECT_GE(instances_touched, 1u);
  EXPECT_EQ(report.completed + report.rejected, report.offered);
}

TEST(Cluster, MergedStreamIsSortedOverDisjointIdRanges) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  Cluster cluster(cluster_config(3, {}, RouterPolicyKind::kPowerOfTwo),
                  models);

  const auto expect_sorted = [](const std::vector<ClusterCompletion>& s,
                                const char* what) {
    for (std::size_t i = 1; i < s.size(); ++i) {
      const bool ordered =
          s[i - 1].completion.cycle < s[i].completion.cycle ||
          (s[i - 1].completion.cycle == s[i].completion.cycle &&
           s[i - 1].completion.response.id < s[i].completion.response.id);
      EXPECT_TRUE(ordered) << what << " out of order at index " << i;
    }
  };

  // Windows polled while arrivals are still being routed concatenate
  // into one fleet-wide sorted stream; the post-drain window is sorted
  // itself but its sub-size flushes dispatch at each instance's own
  // (possibly lagging) clock, so it is checked separately.
  std::vector<ClusterCompletion> live;
  std::vector<ClusterCompletion> tail;
  constexpr std::size_t kRequests = 30;
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::SubmitRequest request;
    request.task = i % 2;
    request.tenant = static_cast<serve::TenantId>(i % 3);
    request.at_cycle = 1'000 + static_cast<sim::Cycle>(i) * 2'000;
    const Cluster::Submission submission = cluster.submit(request);
    ASSERT_TRUE(submission.instance.has_value());
    // The id encodes the owning instance: disjoint per-instance ranges.
    EXPECT_EQ(static_cast<InstanceId>(submission.id >> 40),
              *submission.instance);
    (void)cluster.step_until(cluster.last_submitted_arrival());
    for (ClusterCompletion& c : cluster.poll_completions()) {
      live.push_back(std::move(c));
    }
  }
  cluster.drain();
  (void)cluster.step_until(sim::kNever);
  for (ClusterCompletion& c : cluster.poll_completions()) {
    tail.push_back(std::move(c));
  }

  ASSERT_EQ(live.size() + tail.size(), kRequests);
  expect_sorted(live, "live stream");
  expect_sorted(tail, "drain window");
  std::vector<ClusterCompletion> stream;
  for (const auto* part : {&live, &tail}) {
    for (const ClusterCompletion& c : *part) {
      stream.push_back(c);
    }
  }
  for (const ClusterCompletion& c : stream) {
    EXPECT_EQ(static_cast<InstanceId>(c.completion.response.id >> 40),
              c.instance);
  }
  // Each instance's subsequence is a sorted ledger end to end, drain
  // included.
  for (InstanceId instance = 0; instance < cluster.size(); ++instance) {
    std::vector<ClusterCompletion> own;
    for (const ClusterCompletion& c : stream) {
      if (c.instance == instance) {
        own.push_back(c);
      }
    }
    expect_sorted(own, "per-instance ledger");
  }

  const ClusterReport report = cluster.finalize();
  EXPECT_EQ(report.offered, kRequests);
  EXPECT_EQ(report.completed + report.rejected, kRequests);
}

TEST(Cluster, RefusedSubmitsChangeNoFleetState) {
  // A request the instances refuse (unknown task or tenant, or an
  // arrival at or past the serving watchdog) must fail before the fleet
  // counts it offered or the router draws for it: p2c draws from a
  // seeded RNG, so a refused submit that reached the router would
  // reroute every request after it.
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);
  const ClusterConfig config =
      cluster_config(3, {}, RouterPolicyKind::kPowerOfTwo);
  Cluster clean(config, models);
  Cluster refused(config, models);

  serve::SubmitRequest bad_task;
  bad_task.task = 99;
  serve::SubmitRequest bad_tenant;
  bad_tenant.tenant = 7;
  serve::SubmitRequest too_late;
  too_late.at_cycle = config.server.watchdog_cycles;
  for (const serve::SubmitRequest& bad : {bad_task, bad_tenant, too_late}) {
    EXPECT_THROW((void)refused.submit(bad), std::out_of_range);
  }
  EXPECT_EQ(refused.info().offered, 0u);
  EXPECT_EQ(refused.info().router_shed, 0u);
  EXPECT_EQ(refused.last_submitted_arrival(), 0u);

  constexpr std::size_t kRequests = 12;
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::SubmitRequest request;
    request.task = i % 2;
    request.tenant = static_cast<serve::TenantId>(i % 3);
    request.at_cycle = 1'000 + static_cast<sim::Cycle>(i) * 500;
    const Cluster::Submission expected = clean.submit(request);
    const Cluster::Submission seen = refused.submit(request);
    EXPECT_EQ(seen.instance, expected.instance) << "request " << i;
    EXPECT_EQ(seen.id, expected.id) << "request " << i;
    (void)clean.step_until(clean.last_submitted_arrival());
    (void)refused.step_until(refused.last_submitted_arrival());
  }
  EXPECT_EQ(refused.info().offered, kRequests);
  EXPECT_TRUE(simulated_cluster_reports_identical(clean.finalize(),
                                                  refused.finalize()));
}

TEST(Cluster, AutoscaledFleetBeatsFixedOnFleetEnergy) {
  const auto stories = tiny_stories(8);
  const auto models = two_models(stories);

  // A one-day-in-miniature schedule: a dense morning (30 arrivals inside
  // the first epoch), then a long trough with a sparse tail.
  std::vector<serve::TraceEntry> trace;
  for (std::size_t i = 0; i < 30; ++i) {
    serve::TraceEntry entry;
    entry.arrival_cycle = static_cast<sim::Cycle>(i) * 3'000;
    entry.task = i % 2;
    entry.tenant = static_cast<serve::TenantId>(i % 3);
    trace.push_back(entry);
  }
  for (const sim::Cycle tail : {500'000, 600'000, 900'000}) {
    serve::TraceEntry entry;
    entry.arrival_cycle = tail;
    trace.push_back(entry);
  }

  ClusterConfig fixed_config =
      cluster_config(3, trace, RouterPolicyKind::kPowerOfTwo);
  ClusterConfig scaled_config = fixed_config;
  scaled_config.autoscaler.enabled = true;
  scaled_config.autoscaler.epoch_cycles = 100'000;
  scaled_config.autoscaler.up_arrivals_per_instance = 20.0;
  scaled_config.autoscaler.down_arrivals_per_instance = 5.0;
  scaled_config.autoscaler.cooldown_epochs = 0;

  Cluster fixed_fleet(fixed_config, models);
  const ClusterReport fixed = fixed_fleet.run(trace.size());
  Cluster scaled_fleet(scaled_config, models);
  const ClusterReport scaled = scaled_fleet.run(trace.size());

  // Same work served either way (power-of-two never sheds)...
  EXPECT_EQ(fixed.completed, trace.size());
  EXPECT_EQ(scaled.completed, trace.size());
  EXPECT_EQ(fixed.scale_downs, 0u);
  EXPECT_EQ(fixed.mean_active_instances, 3.0);

  // ...but the autoscaler parks through the trough and stops paying the
  // fleet's idle static + clock-tree watts.
  EXPECT_GE(scaled.scale_downs, 2u);
  EXPECT_LT(scaled.mean_active_instances, 3.0);
  EXPECT_LT(scaled.energy.static_joules, fixed.energy.static_joules);
  EXPECT_LT(scaled.energy.total_joules, fixed.energy.total_joules);
  EXPECT_LT(scaled.energy.per_inference_joules,
            fixed.energy.per_inference_joules);
}

}  // namespace
}  // namespace mann::cluster
