// Serving bench: the mann::serve runtime over a mixed-task workload.
//
// Workload models come from the shared mann_bench_cache suite (the same
// trained models every other bench measures); pass --train-fallback to
// train small stand-in tasks inline when the cache is absent.
//
// Sweeps over the generator -> batcher -> scheduler -> device-pool
// stack, then the acceptance runs:
//   1. pool size at saturating load     (throughput must scale with N)
//   2. dynamic batch size at fixed load (batching efficiency vs latency)
//   3. arrival rate at fixed pool       (the latency/throughput curve)
//   4. scheduler policy at bursty load  (FIFO head-of-line vs EDF +
//      work-stealing on a fully sharded pool with mixed per-task SLOs:
//      EDF must match FIFO's accuracy bit-for-bit while meeting at least
//      as many deadlines at equal-or-better p99)
//   5. optional trace replay (--replay) (recorded schedule, identical
//      simulated reports across worker counts; v2 traces carry tenants)
//   6. sequential vs workers+cache      (wall-clock only; simulated
//      numbers must be bit-identical): the 4-worker leg runs twice
//      through one in-process cycle cache — a cold leg that fills it and
//      a warm replay that must re-simulate nothing
//   7. multi-tenant QoS at overload     (one adversarial quota-violating
//      tenant beside two conforming ones: plain EDF lets the flood
//      degrade the conforming tenants' SLOs; admission control + WFQ
//      must keep conforming hit-rates >= 99%, with the simulated
//      report — per-tenant outcomes included — invariant across worker
//      counts)
//   8. optional trace export (--trace)  (the acceptance workload re-run
//      with the mann::obs recorder attached; the simulated report must
//      be bit-identical to the untraced run — i.e. zero simulated
//      overhead — and the Chrome trace-event JSON lands at PATH for
//      Perfetto / scripts/trace_summary.py)
//   9. optional cluster sweep (--cluster-trace) (the mann::cluster
//      routing tier: a cluster-of-1 must be bit-identical to the bare
//      Server on the unscaled trace, then a 4-instance fleet serves the
//      --cluster-scale'd trace under each router policy — consistent-hash
//      task affinity vs power-of-two least-loaded vs tenant-aware spill —
//      and an autoscaled fleet must beat the fixed one on J/inference
//      through the diurnal trough)
//
// Expected shapes: stories/s grows with the pool until arrival-bound;
// accuracy is identical across pool sizes AND scheduler policies (same
// request set, same programs — ordering must not change predictions);
// p99 tracks queueing, not the datapath; EDF buys its deadline hit-rate
// from reordering and stealing, not from dropping work; admission + WFQ
// buy tenant isolation from shedding the misbehaving tenant, never the
// conforming ones; and the parallel runtime moves wall-clock while
// leaving every simulated number untouched.
//
// Flags:
//   --tasks K          suite tasks to serve (default 4, max = suite size;
//                      anything below the full suite logs the truncation)
//   --requests N       acceptance-run request count (default 4000)
//   --json PATH        write the machine-readable report (BENCH_serve.json)
//   --policies-json P  write the FIFO-vs-EDF comparison artifact
//   --scheduler S      acceptance-leg dispatch policy: edf (default)|fifo
//   --eviction E       model-eviction policy: lru (default)|lfu|cost
//   --replay PATH      also replay the recorded trace CSV (sweep 5)
//   --trace PATH       export a Chrome trace-event JSON of the acceptance
//                      workload (sweep 8; open in Perfetto or feed to
//                      scripts/trace_summary.py)
//   --parallel off     skip the workers+cache acceptance legs (cold and
//                      warm)
//   --wall-gate off    keep the cold leg's >=3x wall speedup
//                      informational (CI perf runs on shared machines;
//                      simulated identity and the warm leg's zero-miss
//                      replay still gate)
//   --cluster-trace P  run the cluster sweep (sweep 9) over the trace CSV
//   --cluster-scale F  amplify the cluster trace F-fold via
//                      serve::scale_trace before the fleet legs
//                      (default 10; the identity leg always replays 1x)
//   --fleet-threads N  host threads advancing cluster instances between
//                      routing barriers (default 4; 0/1 = sequential).
//                      With N >= 2 the sweep also times the p2c leg at 1
//                      thread vs N and gates bit-identical fleet reports;
//                      the fleet legs share a cycle cache sharded into
//                      2N segments so the threads don't serialize on one
//                      mutex. Purely host-side: every simulated number
//                      is fleet-thread invariant.
//   --train-fallback   train stand-in models when mann_bench_cache is absent
//   --train-suite      train (and cache) any missing real-suite models
//                      instead of exiting — slower first run, identical
//                      numbers (the suite is seeded); how CI repopulates
//                      mann_bench_cache/, which is generated, not tracked
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/service_cycle_cache.hpp"
#include "cluster/cluster.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/trace.hpp"

namespace {

using namespace mann;

struct BenchOptions {
  std::size_t tasks = 4;
  std::size_t requests = 4000;
  std::string json_path;
  std::string policies_json_path;
  std::string replay_path;  ///< recorded arrival schedule (CSV, sweep 5)
  std::string trace_path;   ///< Chrome trace-event export (JSON, sweep 8)
  std::string cluster_trace_path;  ///< cluster-sweep arrival CSV (sweep 9)
  std::size_t cluster_scale = 10;  ///< trace amplification for the fleet legs
  std::size_t fleet_threads = 4;   ///< cluster host threads (0/1 = sequential)
  serve::SchedulerPolicy policy = serve::SchedulerPolicy::kEdf;
  serve::EvictionPolicyKind eviction = serve::EvictionPolicyKind::kLru;
  bool parallel = true;
  bool wall_gate = true;
  bool train_fallback = false;
  bool train_suite = false;  ///< repopulate mann_bench_cache with real models
};

BenchOptions parse_args(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto positive = [&](const char* value) {
      char* end = nullptr;
      const long long parsed = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0' || parsed <= 0) {
        std::fprintf(stderr, "%s needs a positive integer, got '%s'\n",
                     arg.c_str(), value);
        std::exit(2);
      }
      return static_cast<std::size_t>(parsed);
    };
    const auto nonnegative = [&](const char* value) {
      char* end = nullptr;
      const long long parsed = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "%s needs a non-negative integer, got '%s'\n",
                     arg.c_str(), value);
        std::exit(2);
      }
      return static_cast<std::size_t>(parsed);
    };
    if (arg == "--tasks") {
      opts.tasks = positive(next());
    } else if (arg == "--requests") {
      opts.requests = positive(next());
    } else if (arg == "--json") {
      opts.json_path = next();
    } else if (arg == "--policies-json") {
      opts.policies_json_path = next();
    } else if (arg == "--replay") {
      opts.replay_path = next();
    } else if (arg == "--trace") {
      opts.trace_path = next();
    } else if (arg == "--scheduler") {
      const std::string value = next();
      if (value == "fifo") {
        opts.policy = serve::SchedulerPolicy::kFifo;
      } else if (value == "edf") {
        opts.policy = serve::SchedulerPolicy::kEdf;
      } else {
        std::fprintf(stderr, "--scheduler must be fifo or edf, got '%s'\n",
                     value.c_str());
        std::exit(2);
      }
    } else if (arg == "--eviction") {
      const std::string value = next();
      if (value == "lru") {
        opts.eviction = serve::EvictionPolicyKind::kLru;
      } else if (value == "lfu") {
        opts.eviction = serve::EvictionPolicyKind::kLfu;
      } else if (value == "cost") {
        opts.eviction = serve::EvictionPolicyKind::kCostAware;
      } else {
        std::fprintf(stderr,
                     "--eviction must be lru, lfu or cost, got '%s'\n",
                     value.c_str());
        std::exit(2);
      }
    } else if (arg == "--parallel") {
      opts.parallel = std::strcmp(next(), "off") != 0;
    } else if (arg == "--wall-gate") {
      opts.wall_gate = std::strcmp(next(), "off") != 0;
    } else if (arg == "--cluster-trace") {
      opts.cluster_trace_path = next();
    } else if (arg == "--cluster-scale") {
      opts.cluster_scale = positive(next());
    } else if (arg == "--fleet-threads") {
      opts.fleet_threads = nonnegative(next());
    } else if (arg == "--train-fallback") {
      opts.train_fallback = true;
    } else if (arg == "--train-suite") {
      opts.train_suite = true;
    } else {
      std::fprintf(stderr,
                   "usage: serve_throughput [--tasks K] [--requests N] "
                   "[--json PATH] [--policies-json PATH] [--scheduler "
                   "fifo|edf] [--eviction lru|lfu|cost] [--replay PATH] "
                   "[--trace PATH] [--parallel off] [--wall-gate off] "
                   "[--cluster-trace PATH] [--cluster-scale F] "
                   "[--fleet-threads N] [--train-fallback] "
                   "[--train-suite]\n");
      std::exit(2);
    }
  }
  // The suite has a fixed size; serving "task 25" would silently wrap or
  // crash later, so reject it here with the actual bound.
  const std::size_t suite_size = data::all_tasks().size();
  if (opts.tasks > suite_size) {
    std::fprintf(stderr,
                 "--tasks %zu exceeds the %zu-task suite; pass 1..%zu\n",
                 opts.tasks, suite_size, suite_size);
    std::exit(2);
  }
  return opts;
}

/// Loads the serving workload from the shared suite cache; falls back to
/// quickstart-size inline training only when allowed.
std::vector<runtime::TaskArtifacts> prepare_serving_tasks(
    const BenchOptions& opts, std::string& suite_source) {
  const std::size_t suite_size = data::all_tasks().size();
  if (opts.tasks < suite_size) {
    std::printf("# serving the first %zu of %zu suite tasks (--tasks %zu "
                "truncates the mix; pass --tasks %zu for the full suite)\n",
                opts.tasks, suite_size, opts.tasks, suite_size);
  }
  const runtime::PrepareConfig suite_cfg = bench::suite_config();
  if (runtime::suite_cache_complete(suite_cfg, "mann_bench_cache",
                                    opts.tasks)) {
    std::printf("# loading %zu tasks from the shared mann_bench_cache "
                "suite ...\n",
                opts.tasks);
    std::fflush(stdout);
    suite_source = "cache";
    return runtime::prepare_suite_cached(suite_cfg, "mann_bench_cache",
                                         opts.tasks);
  }
  if (opts.train_suite) {
    std::printf("# mann_bench_cache incomplete; training the real suite "
                "(%zu tasks) and caching it ...\n",
                opts.tasks);
    std::fflush(stdout);
    suite_source = "train-suite";
    return runtime::prepare_suite_cached(suite_cfg, "mann_bench_cache",
                                         opts.tasks);
  }
  if (!opts.train_fallback) {
    std::fprintf(stderr,
                 "mann_bench_cache/ is missing models for this "
                 "configuration; re-run with --train-suite to train and "
                 "cache the real suite, or --train-fallback to train "
                 "quick stand-in tasks inline\n");
    std::exit(2);
  }
  suite_source = "train-fallback";
  runtime::PrepareConfig prep = runtime::default_prepare_config();
  prep.dataset.train_stories = 600;
  prep.dataset.test_stories = 150;
  prep.train.epochs = 20;
  const std::vector<data::TaskId>& all = data::all_tasks();
  std::vector<runtime::TaskArtifacts> tasks;
  for (std::size_t t = 0; t < opts.tasks && t < all.size(); ++t) {
    std::printf("# training fallback %s ...\n",
                data::task_name(all[t]).c_str());
    std::fflush(stdout);
    tasks.push_back(runtime::prepare_task(all[t], prep));
  }
  return tasks;
}

/// Mixed per-task SLOs: even tasks are "interactive" (tight deadline),
/// odd tasks are "batch" (lax). This split is what gives EDF something
/// FIFO cannot express — urgency that differs from arrival order.
std::vector<sim::Cycle> mixed_slos(std::size_t tasks) {
  std::vector<sim::Cycle> slo(tasks, 0);
  for (std::size_t t = 0; t < tasks; ++t) {
    slo[t] = t % 2 == 0 ? 300'000 : 3'000'000;  // 3 ms vs 30 ms at 100 MHz
  }
  return slo;
}

/// One serving leg under a printable label. The report's
/// host_wall_seconds is the session's own wall clock (first step to
/// finalize).
struct ServingRow {
  std::string config_name;
  serve::ServingReport report;
};

ServingRow serve_leg(const std::vector<serve::ServedModel>& models,
                     const serve::ServerConfig& config,
                     std::size_t requests) {
  const serve::SchedulerConfig& sched = config.scheduler;
  std::string name =
      "serve N=" + std::to_string(sched.devices) +
      " B=" + std::to_string(config.batcher.max_batch) + " ia=" +
      std::to_string(static_cast<long long>(
          config.traffic.mean_interarrival_cycles)) +
      "cy " + serve::scheduler_policy_name(sched.policy);
  if (!config.traffic.tenants.empty()) {
    name += " T=" + std::to_string(config.traffic.tenants.size());
  }
  if (sched.workers > 0) {
    name += " W=" + std::to_string(sched.workers);
  }
  if (sched.workers > 0 || sched.cycle_cache != nullptr) {
    name += " +cache";
  }
  return {std::move(name), serve::Server(config, models).run(requests)};
}

/// One fleet leg: the report plus the host wall clock spent in
/// Cluster::run (the ClusterReport itself is purely simulated).
struct ClusterRow {
  std::string config_name;
  double host_wall_seconds = 0.0;
  cluster::ClusterReport report;
};

ClusterRow cluster_leg(const std::vector<serve::ServedModel>& models,
                       cluster::ClusterConfig config, std::size_t requests) {
  ClusterRow row;
  row.config_name =
      "cluster x" + std::to_string(config.instances) + " " +
      cluster::router_policy_name(config.router.kind) +
      " N=" + std::to_string(config.server.scheduler.devices) +
      " B=" + std::to_string(config.server.batcher.max_batch) +
      (config.autoscaler.enabled ? " +autoscale" : "") +
      (config.fleet_threads > 1
           ? " F=" + std::to_string(config.fleet_threads)
           : "");
  cluster::Cluster fleet(std::move(config), models);
  const auto start = std::chrono::steady_clock::now();
  row.report = fleet.run(requests);
  row.host_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return row;
}

void print_serving_header() {
  std::printf("%-30s %10s %9s %9s %9s %6s %7s %6s %6s %7s %9s %9s\n",
              "config", "stories/s", "p50 ms", "p95 ms", "p99 ms", "hit%",
              "evict", "steal", "acc", "uploads", "mJ/inf", "wall s");
  mann::bench::print_rule(128);
}

void print_serving_row(const ServingRow& m) {
  const serve::ServingReport& r = m.report;
  std::printf(
      "%-30s %10.0f %9.3f %9.3f %9.3f %5.1f%% %7llu %6llu %6.3f %7llu "
      "%9.4f %9.3f\n",
      m.config_name.c_str(), r.throughput_stories_per_second,
      r.latency.p50_seconds * 1e3, r.latency.p95_seconds * 1e3,
      r.latency.p99_seconds * 1e3, r.deadline_hit_rate * 100.0,
      static_cast<unsigned long long>(r.model_evictions),
      static_cast<unsigned long long>(r.stolen_batches), r.accuracy,
      static_cast<unsigned long long>(r.model_uploads),
      r.energy.per_inference_joules * 1e3, r.host_wall_seconds);
}

// Simulated numbers must not move when host execution changes — the
// byte-stable comparison now lives in serve::simulated_reports_identical
// (it covers the per-tenant view too), shared with mann::cluster's
// cluster-of-1 identity gate.
using serve::simulated_reports_identical;

/// Kept as a narrower alias where only the tenant view is under test.
bool tenant_reports_identical(const serve::ServingReport& a,
                              const serve::ServingReport& b) {
  return a.tenants == b.tenants;
}

/// The three-tenant QoS mix: two conforming tenants (interactive tier 0,
/// batch tier 1) and one adversarial tenant that offers ~2/3 of the
/// traffic while its quota entitles it to a small fraction of that.
std::vector<serve::TenantConfig> qos_tenants() {
  std::vector<serve::TenantConfig> tenants(3);
  tenants[0].tier = 0;
  tenants[0].weight = 4.0;
  tenants[0].traffic_share = 1.0;
  tenants[1].tier = 1;
  tenants[1].weight = 2.0;
  tenants[1].traffic_share = 1.0;
  tenants[2].tier = 2;
  tenants[2].weight = 1.0;
  tenants[2].traffic_share = 4.0;  // the flood
  tenants[2].quota_interarrival_cycles = 8'000.0;  // entitled to ~1/5th
  tenants[2].quota_burst = 16.0;
  return tenants;
}

/// Outcome of the optional sweep-9 cluster sweep (--cluster-trace PATH).
struct ClusterSweep {
  bool ran = false;
  /// Cluster-of-1 bit-identical to a bare Server on the unscaled trace.
  bool single_equivalent = true;
  std::size_t instances = 4;
  std::size_t scale = 1;
  std::size_t requests = 0;  ///< scaled-trace arrivals per fleet leg
  /// The routing trade, both directions reported: power-of-two wins on
  /// queueing, consistent-hash affinity wins on residency warmth. At
  /// least one must hold.
  bool p2c_wins_queue_wait = false;
  bool affinity_wins_warm_dispatch = false;
  ClusterRow affinity;
  ClusterRow p2c;
  ClusterRow spill;
  ClusterRow autoscaled;
  /// Host-parallelism comparison: the p2c leg re-run at 1 fleet thread
  /// vs `fleet_threads`, reports gated bit-identical. Only the walls and
  /// the identity verdict live here — everything simulated is above.
  std::size_t fleet_threads = 0;   ///< 0/1 = comparison skipped
  std::size_t cache_segments = 0;  ///< shared-cache shards in the fleet legs
  std::size_t host_cores = 0;      ///< std::thread::hardware_concurrency()
  double wall_seconds_1thread = 0.0;
  double wall_seconds_fleet = 0.0;
  double wall_ratio = 0.0;  ///< 1-thread wall / fleet wall (>1 = fleet wins)
  bool fleet_reports_identical = true;
};

void print_cluster_header() {
  std::printf("%-34s %10s %9s %9s %6s %6s %6s %6s %9s %6s %9s\n",
              "config", "stories/s", "p99 ms", "qw99 ms", "hit%", "shed",
              "fair", "warm%", "mJ/inf", "act", "wall s");
  mann::bench::print_rule(122);
}

void print_cluster_row(const ClusterRow& m) {
  const cluster::ClusterReport& r = m.report;
  std::printf(
      "%-34s %10.0f %9.3f %9.3f %5.1f%% %6llu %6.3f %5.1f%% %9.4f %6.2f "
      "%9.3f\n",
      m.config_name.c_str(), r.throughput_stories_per_second,
      r.latency.p99_seconds * 1e3, r.queue_wait.p99_seconds * 1e3,
      r.deadline_hit_rate * 100.0,
      static_cast<unsigned long long>(r.router_shed), r.instance_fairness,
      r.warm_dispatch_rate * 100.0, r.energy.per_inference_joules * 1e3,
      r.mean_active_instances, m.host_wall_seconds);
}

/// One fleet leg of the cluster JSON block (all simulated quantities).
void write_cluster_leg(std::FILE* f, const char* key,
                       const cluster::ClusterReport& r,
                       bool trailing_comma) {
  std::fprintf(f, "    \"%s\": {\n", key);
  std::fprintf(f, "      \"completed\": %llu,\n",
               static_cast<unsigned long long>(r.completed));
  std::fprintf(f, "      \"rejected\": %llu,\n",
               static_cast<unsigned long long>(r.rejected));
  std::fprintf(f, "      \"router_shed\": %llu,\n",
               static_cast<unsigned long long>(r.router_shed));
  std::fprintf(f, "      \"makespan_cycles\": %llu,\n",
               static_cast<unsigned long long>(r.makespan_cycles));
  std::fprintf(f, "      \"p99_ms\": %.6f,\n", r.latency.p99_seconds * 1e3);
  std::fprintf(f, "      \"queue_wait_p99_ms\": %.6f,\n",
               r.queue_wait.p99_seconds * 1e3);
  std::fprintf(f, "      \"deadline_hit_rate\": %.6f,\n",
               r.deadline_hit_rate);
  std::fprintf(f, "      \"instance_fairness\": %.6f,\n",
               r.instance_fairness);
  std::fprintf(f, "      \"warm_dispatch_rate\": %.6f,\n",
               r.warm_dispatch_rate);
  std::fprintf(f, "      \"model_uploads\": %llu,\n",
               static_cast<unsigned long long>(r.model_uploads));
  std::fprintf(f, "      \"energy_total_joules\": %.9f,\n",
               r.energy.total_joules);
  std::fprintf(f, "      \"energy_per_inference_joules\": %.9f,\n",
               r.energy.per_inference_joules);
  std::fprintf(f, "      \"mean_active_instances\": %.6f,\n",
               r.mean_active_instances);
  std::fprintf(f, "      \"scale_ups\": %zu,\n", r.scale_ups);
  std::fprintf(f, "      \"scale_downs\": %zu\n", r.scale_downs);
  std::fprintf(f, "    }%s\n", trailing_comma ? "," : "");
}

/// Sweep 6's two 4-worker runs through one in-process cycle cache: the
/// cold leg fills it, the warm replay reads it back.
struct HostLegs {
  serve::ServingReport cold;
  serve::ServingReport warm;
  accel::ServiceCycleCacheStats warm_cache;  ///< the warm run's lookups only
  double cold_speedup = 1.0;  ///< sequential wall / cold-leg wall
  double warm_speedup = 1.0;  ///< sequential wall / warm-replay wall
  bool identical = true;      ///< both runs match the sequential report
};

/// Outcome of the optional sweep-8 trace export (--trace PATH).
struct TraceExport {
  bool ran = false;        ///< the leg executed (path given)
  bool identical = true;   ///< traced simulated report == untraced one
  bool wrote = true;       ///< the JSON landed on disk
  std::size_t events = 0;  ///< recorded trace events (0 when MANN_OBS=OFF)
  double wall_seconds = 0.0;
  double overhead = 1.0;   ///< traced wall / untraced wall (informational)
};

/// Worst conforming (non-adversarial, tiers 0-1) deadline hit-rate.
double conforming_hit_rate(const serve::ServingReport& report) {
  double worst = 1.0;
  for (const serve::TenantReport& tenant : report.tenants) {
    if (tenant.tenant <= 1) {
      worst = std::min(worst, tenant.hit_rate());
    }
  }
  return worst;
}

void print_tenant_rows(const serve::ServingReport& report) {
  for (const serve::TenantReport& t : report.tenants) {
    std::printf("    tenant %u (tier %u, w=%.0f): admitted %llu, "
                "completed %llu, hit %.2f%%, shed full/quota/doom/over = "
                "%llu/%llu/%llu/%llu\n",
                t.tenant, t.tier, t.weight,
                static_cast<unsigned long long>(t.admitted),
                static_cast<unsigned long long>(t.completed),
                t.hit_rate() * 100.0,
                static_cast<unsigned long long>(
                    t.shed.count(serve::ShedReason::kQueueFull)),
                static_cast<unsigned long long>(
                    t.shed.count(serve::ShedReason::kQuota)),
                static_cast<unsigned long long>(
                    t.shed.count(serve::ShedReason::kDoomed)),
                static_cast<unsigned long long>(
                    t.shed.count(serve::ShedReason::kOverload)));
  }
}

void write_policy_json(std::FILE* f, const char* key,
                       const serve::ServingReport& r, bool trailing_comma) {
  std::fprintf(f, "  \"%s\": {\n", key);
  std::fprintf(f, "    \"throughput_stories_per_second\": %.6f,\n",
               r.throughput_stories_per_second);
  std::fprintf(f, "    \"p50_ms\": %.6f,\n", r.latency.p50_seconds * 1e3);
  std::fprintf(f, "    \"p95_ms\": %.6f,\n", r.latency.p95_seconds * 1e3);
  std::fprintf(f, "    \"p99_ms\": %.6f,\n", r.latency.p99_seconds * 1e3);
  std::fprintf(f, "    \"accuracy\": %.6f,\n", r.accuracy);
  std::fprintf(f, "    \"deadline_hit_rate\": %.6f,\n", r.deadline_hit_rate);
  std::fprintf(f, "    \"deadline_missed\": %llu,\n",
               static_cast<unsigned long long>(r.deadline_missed));
  std::fprintf(f, "    \"model_uploads\": %llu,\n",
               static_cast<unsigned long long>(r.model_uploads));
  std::fprintf(f, "    \"model_evictions\": %llu,\n",
               static_cast<unsigned long long>(r.model_evictions));
  std::fprintf(f, "    \"stolen_batches\": %llu,\n",
               static_cast<unsigned long long>(r.stolen_batches));
  std::fprintf(f, "    \"energy_per_inference_joules\": %.9f\n",
               r.energy.per_inference_joules);
  std::fprintf(f, "  }%s\n", trailing_comma ? "," : "");
}

/// FIFO-vs-EDF comparison artifact (uploaded by the CI perf job so a
/// policy regression is diagnosable straight from the Actions tab).
void write_policies_json(const BenchOptions& opts,
                         const serve::ServerConfig& workload,
                         const serve::ServingReport& fifo,
                         const serve::ServingReport& edf,
                         bool edf_worker_identical) {
  std::FILE* f = std::fopen(opts.policies_json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n",
                 opts.policies_json_path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_policy_compare\",\n");
  std::fprintf(f, "  \"schema\": 1,\n");
  std::fprintf(f, "  \"tasks\": %zu,\n", opts.tasks);
  std::fprintf(f, "  \"requests\": %zu,\n", opts.requests);
  std::fprintf(f, "  \"devices\": %zu,\n", workload.scheduler.devices);
  std::fprintf(f, "  \"process\": \"bursty\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(workload.traffic.seed));
  std::fprintf(f, "  \"edf_identical_across_workers\": %s,\n",
               edf_worker_identical ? "true" : "false");
  write_policy_json(f, "fifo", fifo, /*trailing_comma=*/true);
  write_policy_json(f, "edf", edf, /*trailing_comma=*/false);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", opts.policies_json_path.c_str());
}

void write_json(const BenchOptions& opts, const std::string& suite_source,
                const serve::ServerConfig& accept,
                const serve::ServingReport& sequential,
                const HostLegs& host, const serve::ServingReport& qos_edf,
                const serve::ServingReport& qos_wfq,
                bool qos_worker_identical, const TraceExport& trace,
                const ClusterSweep& cluster_sweep) {
  std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
    std::exit(2);
  }
  // The `simulated` block is deterministic given the seed, so CI can
  // gate on it; the `host` block is machine-dependent and informative.
  const serve::ServingReport& r = opts.parallel ? host.warm : sequential;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_throughput\",\n");
  std::fprintf(f, "  \"schema\": 6,\n");
  std::fprintf(f, "  \"suite_source\": \"%s\",\n", suite_source.c_str());
  std::fprintf(f, "  \"tasks\": %zu,\n", opts.tasks);
  std::fprintf(f, "  \"requests\": %zu,\n", opts.requests);
  std::fprintf(f, "  \"devices\": %zu,\n", accept.scheduler.devices);
  std::fprintf(f, "  \"max_batch\": %zu,\n", accept.batcher.max_batch);
  std::fprintf(f, "  \"scheduler_policy\": \"%s\",\n",
               serve::scheduler_policy_name(accept.scheduler.policy));
  std::fprintf(f, "  \"eviction_policy\": \"%s\",\n",
               serve::eviction_policy_name(accept.scheduler.eviction));
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(accept.traffic.seed));
  std::fprintf(f, "  \"simulated\": {\n");
  std::fprintf(f, "    \"throughput_stories_per_second\": %.6f,\n",
               r.throughput_stories_per_second);
  std::fprintf(f, "    \"offered_stories_per_second\": %.6f,\n",
               r.offered_stories_per_second);
  std::fprintf(f, "    \"p50_ms\": %.6f,\n", r.latency.p50_seconds * 1e3);
  std::fprintf(f, "    \"p95_ms\": %.6f,\n", r.latency.p95_seconds * 1e3);
  std::fprintf(f, "    \"p99_ms\": %.6f,\n", r.latency.p99_seconds * 1e3);
  std::fprintf(f, "    \"accuracy\": %.6f,\n", r.accuracy);
  std::fprintf(f, "    \"mean_batch_size\": %.6f,\n", r.mean_batch_size);
  std::fprintf(f, "    \"deadline_hit_rate\": %.6f,\n", r.deadline_hit_rate);
  std::fprintf(f, "    \"deadline_missed\": %llu,\n",
               static_cast<unsigned long long>(r.deadline_missed));
  std::fprintf(f, "    \"model_uploads\": %llu,\n",
               static_cast<unsigned long long>(r.model_uploads));
  std::fprintf(f, "    \"model_evictions\": %llu,\n",
               static_cast<unsigned long long>(r.model_evictions));
  std::fprintf(f, "    \"stolen_batches\": %llu,\n",
               static_cast<unsigned long long>(r.stolen_batches));
  std::fprintf(f, "    \"energy_total_joules\": %.9f,\n",
               r.energy.total_joules);
  std::fprintf(f, "    \"mean_power_watts\": %.6f,\n", r.energy.mean_watts);
  std::fprintf(f, "    \"energy_per_inference_joules\": %.9f\n",
               r.energy.per_inference_joules);
  std::fprintf(f, "  },\n");
  // The multi-tenant QoS acceptance (sweep 7): deterministic simulated
  // numbers, so CI gates conforming-tenant hit-rate and fairness on
  // them beside throughput/energy.
  std::fprintf(f, "  \"multitenant\": {\n");
  std::fprintf(f, "    \"conforming_hit_rate_edf\": %.6f,\n",
               conforming_hit_rate(qos_edf));
  std::fprintf(f, "    \"conforming_hit_rate\": %.6f,\n",
               conforming_hit_rate(qos_wfq));
  std::fprintf(f, "    \"fairness_index\": %.6f,\n",
               qos_wfq.fairness_index);
  std::fprintf(f, "    \"rejected\": %llu,\n",
               static_cast<unsigned long long>(qos_wfq.rejected));
  std::fprintf(f, "    \"shed_queue_full\": %llu,\n",
               static_cast<unsigned long long>(
                   qos_wfq.shed.count(serve::ShedReason::kQueueFull)));
  std::fprintf(f, "    \"shed_quota\": %llu,\n",
               static_cast<unsigned long long>(
                   qos_wfq.shed.count(serve::ShedReason::kQuota)));
  std::fprintf(f, "    \"shed_doomed\": %llu,\n",
               static_cast<unsigned long long>(
                   qos_wfq.shed.count(serve::ShedReason::kDoomed)));
  std::fprintf(f, "    \"shed_overload\": %llu,\n",
               static_cast<unsigned long long>(
                   qos_wfq.shed.count(serve::ShedReason::kOverload)));
  std::fprintf(f, "    \"worker_identical\": %s\n",
               qos_worker_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  if (cluster_sweep.ran) {
    // The cluster sweep (sweep 9): everything here except the per-leg
    // wall clocks is simulated, so CI gates the routing trade and the
    // autoscaler's energy win directly on these numbers.
    std::fprintf(f, "  \"cluster\": {\n");
    std::fprintf(f, "    \"instances\": %zu,\n", cluster_sweep.instances);
    std::fprintf(f, "    \"scale\": %zu,\n", cluster_sweep.scale);
    std::fprintf(f, "    \"requests\": %zu,\n", cluster_sweep.requests);
    std::fprintf(f, "    \"single_equivalent\": %s,\n",
                 cluster_sweep.single_equivalent ? "true" : "false");
    std::fprintf(f, "    \"p2c_wins_queue_wait\": %s,\n",
                 cluster_sweep.p2c_wins_queue_wait ? "true" : "false");
    std::fprintf(f, "    \"affinity_wins_warm_dispatch\": %s,\n",
                 cluster_sweep.affinity_wins_warm_dispatch ? "true"
                                                           : "false");
    write_cluster_leg(f, "task_affinity", cluster_sweep.affinity.report,
                      /*trailing_comma=*/true);
    write_cluster_leg(f, "power_of_two", cluster_sweep.p2c.report,
                      /*trailing_comma=*/true);
    write_cluster_leg(f, "tenant_spill", cluster_sweep.spill.report,
                      /*trailing_comma=*/true);
    write_cluster_leg(f, "autoscaled", cluster_sweep.autoscaled.report,
                      /*trailing_comma=*/true);
    // Host-side fleet parallelism: the p2c leg at 1 fleet thread vs N.
    // `simulated_reports_identical` is the determinism contract (gated);
    // the walls and ratio are machine-dependent, so the gate script only
    // checks the ratio when host_cores allows a win.
    std::fprintf(f, "    \"host\": {\n");
    std::fprintf(f, "      \"fleet_threads\": %zu,\n",
                 cluster_sweep.fleet_threads);
    std::fprintf(f, "      \"cache_segments\": %zu,\n",
                 cluster_sweep.cache_segments);
    std::fprintf(f, "      \"host_cores\": %zu,\n", cluster_sweep.host_cores);
    std::fprintf(f, "      \"wall_seconds_1thread\": %.6f,\n",
                 cluster_sweep.wall_seconds_1thread);
    std::fprintf(f, "      \"wall_seconds_fleet\": %.6f,\n",
                 cluster_sweep.wall_seconds_fleet);
    std::fprintf(f, "      \"wall_ratio\": %.3f,\n",
                 cluster_sweep.wall_ratio);
    std::fprintf(f, "      \"simulated_reports_identical\": %s\n",
                 cluster_sweep.fleet_reports_identical ? "true" : "false");
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"host\": {\n");
  std::fprintf(f, "    \"sequential_wall_seconds\": %.6f%s\n",
               sequential.host_wall_seconds,
               opts.parallel || trace.ran ? "," : "");
  if (opts.parallel) {
    // Only claim parallel-leg facts when the legs actually ran. The
    // parallel wall, wall_speedup and cache block describe the warm
    // replay; cold_wall_speedup is the cold leg of the same run.
    const serve::ServingReport& warm = host.warm;
    std::fprintf(f, "    \"parallel_wall_seconds\": %.6f,\n",
                 warm.host_wall_seconds);
    std::fprintf(f, "    \"wall_speedup\": %.3f,\n", host.warm_speedup);
    std::fprintf(f, "    \"cold_wall_speedup\": %.3f,\n",
                 host.cold_speedup);
    std::fprintf(f, "    \"workers\": %zu,\n", warm.workers);
    std::fprintf(f, "    \"reports_identical\": %s,\n",
                 host.identical ? "true" : "false");
    std::fprintf(f, "    \"cache\": {\n");
    std::fprintf(f, "      \"hits\": %llu,\n",
                 static_cast<unsigned long long>(host.warm_cache.hits));
    std::fprintf(f, "      \"misses\": %llu,\n",
                 static_cast<unsigned long long>(host.warm_cache.misses));
    std::fprintf(f, "      \"waits\": %llu,\n",
                 static_cast<unsigned long long>(host.warm_cache.waits));
    std::fprintf(f, "      \"evictions\": %llu,\n",
                 static_cast<unsigned long long>(host.warm_cache.evictions));
    std::fprintf(f, "      \"hit_rate\": %.6f\n", host.warm_cache.hit_rate());
    std::fprintf(f, "    },\n");
    // Worker prefetch scoring — deterministic (simulated-state inputs),
    // so the gate script can reason about it like any simulated number.
    std::fprintf(f, "    \"speculation\": {\n");
    std::fprintf(f, "      \"speculated\": %llu,\n",
                 static_cast<unsigned long long>(warm.speculation.speculated));
    std::fprintf(f, "      \"useful\": %llu,\n",
                 static_cast<unsigned long long>(warm.speculation.useful));
    std::fprintf(f, "      \"wasted\": %llu\n",
                 static_cast<unsigned long long>(warm.speculation.wasted));
    std::fprintf(f, "    }%s\n", trace.ran ? "," : "");
  }
  if (trace.ran) {
    // Informational, machine-dependent: the wall cost of recording the
    // mann::obs trace (simulated identity is gated in the bench itself).
    std::fprintf(f, "    \"trace\": {\n");
    std::fprintf(f, "      \"events\": %zu,\n", trace.events);
    std::fprintf(f, "      \"wall_seconds\": %.6f,\n", trace.wall_seconds);
    std::fprintf(f, "      \"overhead\": %.3f,\n", trace.overhead);
    std::fprintf(f, "      \"identical\": %s\n",
                 trace.identical ? "true" : "false");
    std::fprintf(f, "    }\n");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", opts.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_args(argc, argv);
  std::string suite_source;
  const auto tasks = prepare_serving_tasks(opts, suite_source);
  const std::vector<serve::ServedModel> models = bench::served_models(tasks);

  // The defaults: 100 MHz devices, batches of up to 8 flushed at 200k
  // cycles, Poisson arrivals from seed 2019, 2 shared devices under EDF.
  serve::ServerConfig base;
  base.scheduler.eviction = opts.eviction;
  constexpr std::size_t kSweepRequests = 400;

  bench::print_header(
      "Serving sweep 1: device-pool size at saturating load "
      "(400 requests, B=8, interarrival 500 cycles)");
  print_serving_header();
  serve::ServerConfig sweep1 = base;
  sweep1.traffic.mean_interarrival_cycles = 500.0;
  std::vector<ServingRow> pool_rows;
  for (const std::size_t devices : {1U, 2U, 4U, 8U}) {
    sweep1.scheduler.devices = devices;
    pool_rows.push_back(serve_leg(models, sweep1, kSweepRequests));
    print_serving_row(pool_rows.back());
  }

  bench::print_header(
      "Serving sweep 2: dynamic batch size (N=2, interarrival 10k cycles)");
  print_serving_header();
  serve::ServerConfig sweep2 = base;
  sweep2.traffic.mean_interarrival_cycles = 10'000.0;
  for (const std::size_t max_batch : {1U, 4U, 8U, 16U}) {
    sweep2.batcher.max_batch = max_batch;
    print_serving_row(serve_leg(models, sweep2, kSweepRequests));
  }

  bench::print_header(
      "Serving sweep 3: arrival rate (N=2, B=8, Poisson vs bursty vs "
      "diurnal)");
  print_serving_header();
  serve::ServerConfig sweep3 = base;
  for (const double interarrival : {2'000.0, 10'000.0, 50'000.0}) {
    sweep3.traffic.mean_interarrival_cycles = interarrival;
    sweep3.traffic.process = serve::ArrivalProcess::kPoisson;
    print_serving_row(serve_leg(models, sweep3, kSweepRequests));
    sweep3.traffic.process = serve::ArrivalProcess::kBursty;
    print_serving_row(serve_leg(models, sweep3, kSweepRequests));
  }
  sweep3.traffic.mean_interarrival_cycles = 10'000.0;
  sweep3.traffic.process = serve::ArrivalProcess::kDiurnal;
  sweep3.traffic.diurnal_amplitude = 0.6;
  sweep3.traffic.diurnal_period_cycles = 2.0e6;
  print_serving_row(serve_leg(models, sweep3, kSweepRequests));

  // Simulated-scaling acceptance: invariants against the N=1 baseline.
  const serve::ServingReport& one = pool_rows.front().report;
  const serve::ServingReport& four = pool_rows[2].report;
  const double sim_speedup = four.throughput_stories_per_second /
                             one.throughput_stories_per_second;
  std::printf(
      "\nN=1 -> N=4: %.2fx stories/s; accuracy %.3f -> %.3f (must be "
      "equal); p99 %.3f ms -> %.3f ms (must not grow)\n",
      sim_speedup, one.accuracy, four.accuracy,
      one.latency.p99_seconds * 1e3, four.latency.p99_seconds * 1e3);
  const bool scaling_ok = sim_speedup > 1.5 &&
                          one.accuracy == four.accuracy &&
                          four.latency.p99_cycles <= one.latency.p99_cycles;
  std::printf("scaling check: %s\n", scaling_ok ? "PASS" : "FAIL");

  // Policy acceptance: FIFO head-of-line vs EDF + work-stealing on a
  // fully sharded pool under bursty load with mixed per-task SLOs. The
  // sharded pool is the hard case for FIFO (one overloaded shard blocks
  // the global head while other slots idle) and exactly where EDF's
  // stealing pays.
  bench::print_header(
      "Serving sweep 4: scheduler policy — FIFO head-of-line vs EDF + "
      "work-stealing (N=4 dedicated, B=8, bursty, mixed 3/30 ms SLOs)");
  print_serving_header();
  serve::ServerConfig policy_load = base;
  policy_load.scheduler.devices = 4;
  policy_load.scheduler.dedicated_devices = 4;
  policy_load.traffic.process = serve::ArrivalProcess::kBursty;
  policy_load.traffic.mean_interarrival_cycles = 2'000.0;
  policy_load.traffic.slo.per_task = mixed_slos(tasks.size());

  policy_load.scheduler.policy = serve::SchedulerPolicy::kFifo;
  const ServingRow fifo = serve_leg(models, policy_load, opts.requests);
  print_serving_row(fifo);
  policy_load.scheduler.policy = serve::SchedulerPolicy::kEdf;
  const ServingRow edf = serve_leg(models, policy_load, opts.requests);
  print_serving_row(edf);
  // EDF's timeline must not depend on host workers either.
  policy_load.scheduler.workers = 4;
  const ServingRow edf_workers =
      serve_leg(models, policy_load, opts.requests);
  policy_load.scheduler.workers = 0;
  const bool edf_worker_identical =
      simulated_reports_identical(edf.report, edf_workers.report);

  std::printf(
      "\nFIFO -> EDF: deadline hit %.1f%% -> %.1f%% (must not drop); p99 "
      "%.3f ms -> %.3f ms (must not grow); accuracy %.4f -> %.4f (must be "
      "equal); stolen batches %llu; EDF workers=4 simulated reports %s\n",
      fifo.report.deadline_hit_rate * 100.0,
      edf.report.deadline_hit_rate * 100.0,
      fifo.report.latency.p99_seconds * 1e3,
      edf.report.latency.p99_seconds * 1e3, fifo.report.accuracy,
      edf.report.accuracy,
      static_cast<unsigned long long>(edf.report.stolen_batches),
      edf_worker_identical ? "identical" : "DIVERGED");
  const bool policy_ok =
      edf.report.deadline_hit_rate >= fifo.report.deadline_hit_rate &&
      edf.report.latency.p99_cycles <= fifo.report.latency.p99_cycles &&
      edf.report.accuracy == fifo.report.accuracy &&
      edf.report.completed == fifo.report.completed &&
      edf_worker_identical;
  std::printf("policy check (hit-rate >=, p99 <=, accuracy ==, "
              "worker-identical): %s\n",
              policy_ok ? "PASS" : "FAIL");
  if (!opts.policies_json_path.empty()) {
    write_policies_json(opts, policy_load, fifo.report, edf.report,
                        edf_worker_identical);
  }

  // Optional trace replay: the recorded schedule served end-to-end, with
  // the simulated report invariant across worker counts.
  bool trace_ok = true;
  if (!opts.replay_path.empty()) {
    bench::print_header(
        "Serving sweep 5: trace replay (recorded arrival schedule)");
    print_serving_header();
    serve::ServerConfig trace_load = base;
    std::vector<serve::TraceEntry>& trace = trace_load.traffic.trace;
    trace_load.traffic.process = serve::ArrivalProcess::kTrace;
    try {
      trace = serve::load_trace_csv(opts.replay_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (trace.empty()) {
      // A header-only CSV parses fine but replays nothing: without this
      // guard it became a zero-request sweep that died dividing by the
      // empty trace length. Refuse it with a usable message instead.
      std::fprintf(stderr,
                   "--replay %s: trace has no entries (header-only or "
                   "empty file); nothing to replay\n",
                   opts.replay_path.c_str());
      return 2;
    }
    // Traces may name any suite task; a truncated --tasks run can only
    // replay the tasks it loaded. v2 traces also name tenants — cover
    // the recording with a default registry (QoS knobs are the
    // replayer's choice; the recording only fixes identity).
    serve::TenantId max_tenant = 0;
    for (serve::TraceEntry& entry : trace) {
      entry.task %= tasks.size();
      max_tenant = std::max(max_tenant, entry.tenant);
    }
    if (max_tenant > 0) {
      trace_load.traffic.tenants.assign(max_tenant + 1,
                                        serve::TenantConfig{});
    }
    trace_load.scheduler.devices = 4;
    trace_load.scheduler.dedicated_devices = 4;
    trace_load.traffic.slo.per_task = mixed_slos(tasks.size());
    const ServingRow replay = serve_leg(models, trace_load, trace.size());
    print_serving_row(replay);
    trace_load.scheduler.workers = 4;
    const ServingRow replay_workers =
        serve_leg(models, trace_load, trace.size());
    print_serving_row(replay_workers);
    trace_ok = simulated_reports_identical(replay.report,
                                           replay_workers.report);
    std::printf("trace replay check (identical simulation across worker "
                "counts): %s\n",
                trace_ok ? "PASS" : "FAIL");
  }

  // Host-execution acceptance: the same saturating workload, once on the
  // sequential path and then twice with one worker per device slot
  // through one in-process service-cycle cache. The first parallel run
  // (the cold leg) fills the cache; the second (the warm replay) must
  // find every workload there. Only wall-clock may move.
  bench::print_header(
      "Serving sweep 6: host execution — sequential vs workers + "
      "service-cycle cache, cold then warm (N=4 dedicated, B=8, "
      "interarrival 500 cycles)");
  print_serving_header();
  serve::ServerConfig accept = base;
  accept.scheduler.devices = 4;
  // Per-task sharding: stable residency keeps the device pool warm, so
  // repeated batch windows are cache hits instead of new cold variants.
  accept.scheduler.dedicated_devices = 4;
  accept.traffic.mean_interarrival_cycles = 500.0;
  accept.scheduler.policy = opts.policy;
  accept.traffic.slo.per_task = mixed_slos(tasks.size());

  const ServingRow sequential = serve_leg(models, accept, opts.requests);
  print_serving_row(sequential);

  HostLegs host;
  bool parallel_ok = true;
  if (opts.parallel) {
    accel::ServiceCycleCache cache(4096);
    serve::ServerConfig cached = accept;
    cached.scheduler.workers = 4;
    cached.scheduler.cycle_cache = &cache;
    ServingRow cold = serve_leg(models, cached, opts.requests);
    cold.config_name += " cold";
    print_serving_row(cold);
    ServingRow warm = serve_leg(models, cached, opts.requests);
    warm.config_name += " warm";
    print_serving_row(warm);

    host.cold = cold.report;
    host.warm = warm.report;
    // The reports carry the shared cache's running totals; the warm
    // replay's own lookups are what the cold leg had not yet counted.
    const accel::ServiceCycleCacheStats& before = cold.report.cycle_cache;
    const accel::ServiceCycleCacheStats& after = warm.report.cycle_cache;
    host.warm_cache.hits = after.hits - before.hits;
    host.warm_cache.misses = after.misses - before.misses;
    host.warm_cache.waits = after.waits - before.waits;
    host.warm_cache.insertions = after.insertions - before.insertions;
    host.warm_cache.evictions = after.evictions - before.evictions;
    host.identical =
        simulated_reports_identical(sequential.report, cold.report) &&
        simulated_reports_identical(sequential.report, warm.report);
    const double seq_wall = sequential.report.host_wall_seconds;
    const auto speedup = [seq_wall](const serve::ServingReport& r) {
      return r.host_wall_seconds > 0.0 ? seq_wall / r.host_wall_seconds
                                       : 0.0;
    };
    host.cold_speedup = speedup(cold.report);
    host.warm_speedup = speedup(warm.report);
    std::printf(
        "\nhost wall: sequential %.3f s -> cold %.3f s (%.2fx) -> warm "
        "%.3f s (%.2fx); warm cache %llu hits / %llu misses / %llu "
        "insertions; simulated reports %s\n",
        seq_wall, cold.report.host_wall_seconds, host.cold_speedup,
        warm.report.host_wall_seconds, host.warm_speedup,
        static_cast<unsigned long long>(host.warm_cache.hits),
        static_cast<unsigned long long>(host.warm_cache.misses),
        static_cast<unsigned long long>(host.warm_cache.insertions),
        host.identical ? "identical" : "DIVERGED");
    std::printf(
        "speculation: %llu speculated, %llu useful, %llu wasted\n",
        static_cast<unsigned long long>(warm.report.speculation.speculated),
        static_cast<unsigned long long>(warm.report.speculation.useful),
        static_cast<unsigned long long>(warm.report.speculation.wasted));
    // The simulated-identity contract and the warm replay's zero misses
    // hold at any size and always gate. The >=3x wall gate scores the
    // cold leg; it needs a workload large enough for the cache to warm
    // (repeated batch windows) and a quiet machine, so small smoke runs
    // and CI perf (--wall-gate off, shared runners) keep it
    // informational.
    const bool check_speedup = opts.wall_gate && opts.requests >= 2000;
    parallel_ok = host.identical && host.warm_cache.misses == 0 &&
                  (!check_speedup || host.cold_speedup >= 3.0);
    std::printf("parallel check (identical simulation, warm replay "
                "re-simulates nothing%s): %s\n",
                check_speedup ? ", >=3x cold wall"
                              : "; >=3x cold wall gate off for this run",
                parallel_ok ? "PASS" : "FAIL");
  } else {
    std::printf("\n(parallel leg skipped: --parallel off)\n");
  }

  // Multi-tenant QoS acceptance: bursty overload with one adversarial
  // (quota-violating) tenant beside two conforming ones. Plain EDF has
  // no notion of who a request belongs to, so the flood degrades the
  // conforming tenants' SLOs; the admission controller (quota + doom +
  // tiered overload shedding) plus WFQ dispatch must hold the
  // conforming tenants' deadline hit-rate at >= 99% — and the whole
  // per-tenant outcome must be invariant across worker counts.
  bench::print_header(
      "Serving sweep 7: multi-tenant QoS — plain EDF vs admission + WFQ "
      "(N=4 dedicated, B=8, bursty overload, adversarial tenant 2)");
  print_serving_header();
  serve::ServerConfig qos_load = base;
  qos_load.scheduler.devices = 4;
  qos_load.scheduler.dedicated_devices = 4;
  qos_load.traffic.process = serve::ArrivalProcess::kBursty;
  qos_load.traffic.mean_interarrival_cycles = 1'200.0;
  qos_load.traffic.slo.per_task = mixed_slos(tasks.size());
  qos_load.traffic.tenants = qos_tenants();

  // Leg A: the PR-3 escape hatch — EDF dispatch, transparent admission.
  qos_load.scheduler.policy = serve::SchedulerPolicy::kEdf;
  qos_load.admission = serve::AdmissionConfig{};
  qos_load.admission.enforce_quotas = false;
  const ServingRow qos_edf = serve_leg(models, qos_load, opts.requests);
  print_serving_row(qos_edf);
  print_tenant_rows(qos_edf.report);

  // Leg B: the control plane on — quotas, doom shedding, tiered
  // overload shedding, WFQ dispatch (weights from the registry).
  qos_load.scheduler.policy = serve::SchedulerPolicy::kWfq;
  qos_load.admission = serve::AdmissionConfig{};
  qos_load.admission.enforce_quotas = true;
  qos_load.admission.shed_doomed = true;
  qos_load.admission.overload_pending_requests = 1'024;
  qos_load.admission.overload_watermark = 0.70;
  const ServingRow qos_wfq = serve_leg(models, qos_load, opts.requests);
  print_serving_row(qos_wfq);
  print_tenant_rows(qos_wfq.report);

  // Worker invariance covers the per-tenant view too: admission and WFQ
  // decisions are simulated state, so workers must not move them.
  qos_load.scheduler.workers = 4;
  const ServingRow qos_wfq_workers =
      serve_leg(models, qos_load, opts.requests);
  const bool qos_worker_identical =
      simulated_reports_identical(qos_wfq.report, qos_wfq_workers.report) &&
      tenant_reports_identical(qos_wfq.report, qos_wfq_workers.report);

  const double conforming_edf = conforming_hit_rate(qos_edf.report);
  const double conforming_wfq = conforming_hit_rate(qos_wfq.report);
  std::printf(
      "\nplain EDF -> admission+WFQ: conforming-tenant hit %.1f%% -> "
      "%.1f%% (must reach >= 99%%); fairness %.3f -> %.3f; shed "
      "full/quota/doom/over = %llu/%llu/%llu/%llu; workers=4 simulated + "
      "tenant reports %s\n",
      conforming_edf * 100.0, conforming_wfq * 100.0,
      qos_edf.report.fairness_index, qos_wfq.report.fairness_index,
      static_cast<unsigned long long>(
          qos_wfq.report.shed.count(serve::ShedReason::kQueueFull)),
      static_cast<unsigned long long>(
          qos_wfq.report.shed.count(serve::ShedReason::kQuota)),
      static_cast<unsigned long long>(
          qos_wfq.report.shed.count(serve::ShedReason::kDoomed)),
      static_cast<unsigned long long>(
          qos_wfq.report.shed.count(serve::ShedReason::kOverload)),
      qos_worker_identical ? "identical" : "DIVERGED");
  // Isolation also means the protection is not bought by shedding the
  // conforming tenants themselves: their traffic sits inside quota and
  // below the overload watermark, so every one of their requests must be
  // admitted. (Hit-rate alone would miss a regression that sheds
  // conforming traffic — shed requests never reach the metrics.)
  std::uint64_t conforming_sheds = 0;
  for (const serve::TenantReport& tenant : qos_wfq.report.tenants) {
    if (tenant.tenant <= 1) {
      conforming_sheds += tenant.shed.total();
    }
  }
  const bool qos_ok = conforming_wfq >= 0.99 &&
                      conforming_wfq >= conforming_edf &&
                      conforming_sheds == 0 && qos_worker_identical;
  std::printf("multi-tenant check (conforming hit >= 99%% under "
              "admission+WFQ, >= plain EDF, zero conforming sheds [%llu], "
              "worker-identical): %s\n",
              static_cast<unsigned long long>(conforming_sheds),
              qos_ok ? "PASS" : "FAIL");

  // Optional trace export: the acceptance workload once more with the
  // mann::obs recorder + metrics registry attached. Tracing must be
  // invisible to the simulation — the simulated report is required to be
  // bit-identical to the untraced run — and the wall-clock overhead is
  // reported (informational: recording is contention-free per-worker
  // buffering, so it should stay well under 5%).
  TraceExport trace_export;
  if (!opts.trace_path.empty()) {
    bench::print_header(
        "Serving sweep 8: obs trace export (acceptance workload, "
        "lifecycle spans + metrics -> Chrome trace-event JSON)");
    print_serving_header();
    obs::MetricsRegistry registry;
    obs::TraceRecorder recorder;
    serve::ServerConfig traced = accept;
    traced.scheduler.workers = opts.parallel ? 4 : 0;
    traced.metrics = &registry;
    traced.trace = &recorder;
    const ServingRow traced_run = serve_leg(models, traced, opts.requests);
    print_serving_row(traced_run);

    // The traced run starts from a fresh cache, so its untraced twin is
    // the cold leg.
    const serve::ServingReport& untraced =
        opts.parallel ? host.cold : sequential.report;
    trace_export.ran = true;
    trace_export.identical =
        simulated_reports_identical(untraced, traced_run.report);
    trace_export.events = recorder.event_count();
    trace_export.wall_seconds = traced_run.report.host_wall_seconds;
    trace_export.overhead =
        untraced.host_wall_seconds > 0.0
            ? traced_run.report.host_wall_seconds /
                  untraced.host_wall_seconds
            : 1.0;
    trace_export.wrote = obs::write_chrome_trace(
        opts.trace_path, recorder, base.accel.clock_hz, &registry);
    if (trace_export.wrote) {
      std::printf("# wrote %s\n", opts.trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_path.c_str());
    }
    if (obs::kEnabled) {
      std::printf(
          "\ntrace export: %zu events; wall %.3f s vs %.3f s untraced "
          "(%.2fx, informational); simulated reports %s\n",
          trace_export.events, trace_export.wall_seconds,
          untraced.host_wall_seconds, trace_export.overhead,
          trace_export.identical ? "identical" : "DIVERGED");
    } else {
      std::printf("\ntrace export: mann::obs compiled out (MANN_OBS=OFF) "
                  "— wrote an empty, still-valid trace\n");
    }
    std::printf("trace export check (identical simulation, file "
                "written): %s\n",
                trace_export.identical && trace_export.wrote ? "PASS"
                                                             : "FAIL");
  }

  // Optional cluster sweep: the mann::cluster routing tier over N
  // deterministic instances. The identity leg replays the trace at 1x
  // against a bare Server; the fleet legs serve the --cluster-scale'd
  // trace under each router policy, and the autoscaled fleet must beat
  // the fixed one on J/inference by parking through the diurnal trough.
  ClusterSweep cluster_sweep;
  bool cluster_ok = true;
  if (!opts.cluster_trace_path.empty()) {
    bench::print_header(
        "Serving sweep 9: mann::cluster — routing tier over 4 instances "
        "(diurnal trace, fixed vs autoscaled fleet, N=8 devices each)");
    std::vector<serve::TraceEntry> cluster_trace;
    try {
      cluster_trace = serve::load_trace_csv(opts.cluster_trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (cluster_trace.empty()) {
      std::fprintf(stderr,
                   "--cluster-trace %s: trace has no entries; nothing to "
                   "route\n",
                   opts.cluster_trace_path.c_str());
      return 2;
    }
    serve::TenantId max_tenant = 0;
    for (serve::TraceEntry& entry : cluster_trace) {
      entry.task %= tasks.size();
      max_tenant = std::max(max_tenant, entry.tenant);
    }

    // Per-instance pools sized so the fleet's capacity sits between the
    // diurnal trough and peak rates at 10x volume: the peak queues, the
    // trough idles — exactly the regime where parking instances pays.
    serve::ServerConfig cluster_load = base;
    cluster_load.scheduler.devices = 8;  // per instance: the fleet has 4x
    cluster_load.traffic.process = serve::ArrivalProcess::kTrace;
    cluster_load.traffic.slo.per_task = mixed_slos(tasks.size());
    if (max_tenant > 0) {
      cluster_load.traffic.tenants.assign(max_tenant + 1,
                                          serve::TenantConfig{});
    }

    // Identity leg (1x trace): a cluster of one IS the bare Server.
    cluster_load.traffic.trace = cluster_trace;
    const ServingRow bare =
        serve_leg(models, cluster_load, cluster_trace.size());
    cluster::ClusterConfig single;
    single.instances = 1;
    single.server = cluster_load;
    single.router.kind = cluster::RouterPolicyKind::kPowerOfTwo;
    const ClusterRow one =
        cluster_leg(models, std::move(single), cluster_trace.size());
    cluster_sweep.single_equivalent =
        one.report.instance_reports.size() == 1 &&
        simulated_reports_identical(bare.report,
                                    one.report.instance_reports[0].report);

    // Fleet legs on the amplified trace.
    cluster::ClusterConfig fleet;
    fleet.server = cluster_load;
    fleet.server.traffic.trace = serve::scale_trace(
        cluster_trace, opts.cluster_scale, base.traffic.seed);
    const std::vector<serve::TraceEntry>& fleet_trace =
        fleet.server.traffic.trace;
    cluster_sweep.ran = true;
    cluster_sweep.scale = opts.cluster_scale;
    cluster_sweep.requests = fleet_trace.size();
    std::printf("# %zu-entry trace x%zu -> %zu fleet arrivals; "
                "cluster-of-1 vs bare Server on 1x: %s\n",
                cluster_trace.size(), opts.cluster_scale,
                cluster_sweep.requests,
                cluster_sweep.single_equivalent ? "identical" : "DIVERGED");
    print_cluster_header();

    fleet.instances = cluster_sweep.instances;
    // Saturation threshold scaled to the 8-device pools: an instance is
    // "full" near its peak-hour queue depth, not the default sized for
    // the small test fleets.
    fleet.router.spill_queue_threshold = 256;
    // Every fleet leg runs at the requested host parallelism over a
    // shared cycle cache sharded 2x the thread count (so concurrent
    // instances rarely collide on a segment lock). Purely host-side:
    // the 1-thread re-run below gates that every simulated number is
    // bit-identical, which keeps the CI baseline comparison valid.
    fleet.fleet_threads = opts.fleet_threads;
    fleet.cache_segments =
        opts.fleet_threads > 1 ? 2 * opts.fleet_threads : 0;
    cluster_sweep.fleet_threads = opts.fleet_threads;
    cluster_sweep.cache_segments = fleet.cache_segments;
    cluster_sweep.host_cores = std::thread::hardware_concurrency();
    const std::size_t fleet_requests = fleet_trace.size();
    fleet.router.kind = cluster::RouterPolicyKind::kTaskAffinity;
    cluster_sweep.affinity = cluster_leg(models, fleet, fleet_requests);
    print_cluster_row(cluster_sweep.affinity);
    fleet.router.kind = cluster::RouterPolicyKind::kPowerOfTwo;
    cluster_sweep.p2c = cluster_leg(models, fleet, fleet_requests);
    print_cluster_row(cluster_sweep.p2c);
    fleet.router.kind = cluster::RouterPolicyKind::kTenantSpill;
    cluster_sweep.spill = cluster_leg(models, fleet, fleet_requests);
    print_cluster_row(cluster_sweep.spill);

    // Autoscaled leg: thresholds derived from the trace itself so any
    // replayed schedule self-calibrates — the epoch grid divides the
    // span, and up/down bracket the mean arrivals per instance per epoch
    // inside the diurnal envelope (peak ~1.5x mean, trough ~0.5x).
    const sim::Cycle span = fleet_trace.back().arrival_cycle + 1;
    constexpr std::size_t kEpochs = 16;
    fleet.router.kind = cluster::RouterPolicyKind::kPowerOfTwo;
    fleet.autoscaler.enabled = true;
    fleet.autoscaler.epoch_cycles = std::max<sim::Cycle>(1, span / kEpochs);
    const double mean_per_instance =
        static_cast<double>(fleet_requests) /
        static_cast<double>(kEpochs * fleet.instances);
    fleet.autoscaler.up_arrivals_per_instance = 1.25 * mean_per_instance;
    fleet.autoscaler.down_arrivals_per_instance = 0.75 * mean_per_instance;
    fleet.autoscaler.cooldown_epochs = 0;
    fleet.autoscaler.min_instances = 1;
    cluster_sweep.autoscaled = cluster_leg(models, fleet, fleet_requests);
    print_cluster_row(cluster_sweep.autoscaled);

    // Host-parallelism check: the power-of-two leg again at one fleet
    // thread (same shared-cache sharding, fresh cache either way). The
    // reports must be bit-identical — that is the determinism contract
    // — and the two walls give the 1-vs-N ratio the perf job prints.
    if (opts.fleet_threads > 1) {
      cluster::ClusterConfig lone = fleet;
      lone.autoscaler = cluster::AutoscalerConfig{};
      lone.fleet_threads = 1;
      const ClusterRow one_thread =
          cluster_leg(models, std::move(lone), fleet_requests);
      print_cluster_row(one_thread);
      cluster_sweep.wall_seconds_1thread = one_thread.host_wall_seconds;
      cluster_sweep.wall_seconds_fleet = cluster_sweep.p2c.host_wall_seconds;
      cluster_sweep.wall_ratio =
          cluster_sweep.wall_seconds_fleet > 0.0
              ? cluster_sweep.wall_seconds_1thread /
                    cluster_sweep.wall_seconds_fleet
              : 0.0;
      cluster_sweep.fleet_reports_identical =
          cluster::simulated_cluster_reports_identical(
              one_thread.report, cluster_sweep.p2c.report);
      std::printf(
          "\nfleet wall: 1 thread %.3f s vs %zu threads %.3f s -> "
          "%.2fx (%zu host cores); simulated reports %s\n",
          cluster_sweep.wall_seconds_1thread, opts.fleet_threads,
          cluster_sweep.wall_seconds_fleet, cluster_sweep.wall_ratio,
          cluster_sweep.host_cores,
          cluster_sweep.fleet_reports_identical ? "identical"
                                                : "DIVERGED");
    }

    const cluster::ClusterReport& aff = cluster_sweep.affinity.report;
    const cluster::ClusterReport& p2c = cluster_sweep.p2c.report;
    const cluster::ClusterReport& scaled = cluster_sweep.autoscaled.report;
    cluster_sweep.p2c_wins_queue_wait =
        p2c.queue_wait.p99_cycles <= aff.queue_wait.p99_cycles;
    cluster_sweep.affinity_wins_warm_dispatch =
        aff.warm_dispatch_rate >= p2c.warm_dispatch_rate;
    const bool energy_ok = scaled.energy.per_inference_joules <
                           p2c.energy.per_inference_joules;
    std::printf(
        "\nrouting trade: p2c qw99 %.3f ms vs affinity %.3f ms (p2c wins: "
        "%s); affinity warm dispatch %.1f%% vs p2c %.1f%% (affinity wins: "
        "%s)\nautoscaler: %.2f mean active instances (%zu down / %zu up) "
        "-> %.4f mJ/inf vs fixed %.4f mJ/inf (must shrink)\n",
        p2c.queue_wait.p99_seconds * 1e3, aff.queue_wait.p99_seconds * 1e3,
        cluster_sweep.p2c_wins_queue_wait ? "yes" : "no",
        aff.warm_dispatch_rate * 100.0, p2c.warm_dispatch_rate * 100.0,
        cluster_sweep.affinity_wins_warm_dispatch ? "yes" : "no",
        scaled.mean_active_instances, scaled.scale_downs, scaled.scale_ups,
        scaled.energy.per_inference_joules * 1e3,
        p2c.energy.per_inference_joules * 1e3);
    cluster_ok = cluster_sweep.single_equivalent &&
                 cluster_sweep.fleet_reports_identical &&
                 (cluster_sweep.p2c_wins_queue_wait ||
                  cluster_sweep.affinity_wins_warm_dispatch) &&
                 energy_ok;
    std::printf("cluster check (cluster-of-1 identical, fleet threads "
                "report-identical, routing trade holds in at least one "
                "direction, autoscaled J/inf < fixed): %s\n",
                cluster_ok ? "PASS" : "FAIL");
  }

  if (!opts.json_path.empty()) {
    write_json(opts, suite_source, accept, sequential.report, host,
               qos_edf.report, qos_wfq.report, qos_worker_identical,
               trace_export, cluster_sweep);
  }

  std::printf(
      "\nexpected shape: stories/s grows with N until arrival-bound "
      "(sweep 1); larger batches raise\nthroughput and batching "
      "efficiency at some p50 cost (sweep 2); p99 explodes only when "
      "the pool\nsaturates, and bursty traffic pays more p99 than "
      "Poisson at equal mean load (sweep 3);\nEDF + stealing meets more "
      "deadlines than FIFO at equal accuracy (sweep 4); trace replay\nis "
      "worker-count invariant (sweep 5); workers + cache move only the "
      "wall column (sweep 6);\nadmission + WFQ shield conforming "
      "tenants from an adversarial flood (sweep 7); tracing\nchanges no "
      "simulated outcome and costs <5%% wall (sweep 8, with --trace); a "
      "cluster-of-1 is the bare\nServer bit-for-bit and the autoscaled "
      "fleet wins the trough's idle watts (sweep 9, with\n"
      "--cluster-trace).\n");
  const bool trace_export_ok =
      trace_export.identical && trace_export.wrote;
  return scaling_ok && policy_ok && trace_ok && parallel_ok && qos_ok &&
                 trace_export_ok && cluster_ok
             ? 0
             : 1;
}
