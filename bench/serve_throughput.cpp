// Serving bench: the checks a deterministic test cannot hold, because
// they time host threads. Every simulated serving contract (pool
// scaling, EDF vs FIFO, trace replay, multi-tenant QoS, tracing, the
// cluster routing tier and the acceptance workload's baseline numbers)
// is a slow tier-1 test in tests/integration/serving_contracts_test.cpp.
//
// Workload models come from the shared mann_bench_cache suite (the same
// trained models every other bench measures); pass --train-fallback to
// train small stand-in tasks inline when the cache is absent.
//
// Two timed legs:
//   host legs   the acceptance workload (bench::acceptance_config: N=4
//               dedicated, B=8, interarrival 500 cycles, EDF, mixed 3/30
//               ms SLOs) on the sequential path, then twice with one
//               worker per device through one in-process service-cycle
//               cache: a cold leg that fills it and a warm replay that
//               must re-simulate nothing. The three simulated reports
//               must be identical; the warm replay must beat the
//               sequential wall >= 5x and the cold leg >= 3x (the cold
//               gate is off under --wall-gate off, for shared machines).
//               Both wall gates need --requests >= 2000 so the cache sees
//               repeated batch windows.
//   fleet timing (--cluster-trace with --fleet-threads N >= 2) the
//               power-of-two fleet (bench::fleet_config, 4 instances x 8
//               devices) over the --cluster-scale'd trace at N host
//               threads and at 1: the reports must be identical, and on
//               a host with >= 4 cores running >= 4 threads the N-thread
//               wall must beat the 1-thread wall.
//
// Exits 0 when every gate holds, 1 when one fails and 2 on bad flags or
// input.
//
// Flags:
//   --tasks K          suite tasks to serve (default 4, max = suite size;
//                      anything below the full suite logs the truncation)
//   --requests N       acceptance-run request count (default 4000)
//   --wall-gate off    keep the cold leg's >=3x wall speedup informational
//   --cluster-trace P  run the fleet timing over the trace CSV
//   --cluster-scale F  amplify the cluster trace F-fold (default 10)
//   --fleet-threads N  host threads advancing the fleet (default 4; the
//                      fleet legs share a cycle cache sharded 2N ways)
//   --train-fallback   train stand-in models when mann_bench_cache is absent
//   --train-suite      train (and cache) any missing real-suite models
//                      instead of exiting — slower first run, identical
//                      numbers (the suite is seeded); how CI repopulates
//                      mann_bench_cache/, which is generated, not tracked
#include <chrono>
#include <cstdint>
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
#include "serve/trace.hpp"

namespace {

using namespace mann;

struct BenchOptions {
  std::size_t tasks = 4;
  std::size_t requests = 4000;
  std::string cluster_trace_path;  ///< fleet-timing arrival CSV
  std::size_t cluster_scale = 10;  ///< trace amplification for the fleet
  std::size_t fleet_threads = 4;   ///< cluster host threads (0/1 = sequential)
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
    if (arg == "--tasks") {
      opts.tasks = bench::count_flag(arg, next(), 1);
    } else if (arg == "--requests") {
      opts.requests = bench::count_flag(arg, next(), 1);
    } else if (arg == "--wall-gate") {
      opts.wall_gate = std::strcmp(next(), "off") != 0;
    } else if (arg == "--cluster-trace") {
      opts.cluster_trace_path = next();
    } else if (arg == "--cluster-scale") {
      opts.cluster_scale = bench::count_flag(arg, next(), 1);
    } else if (arg == "--fleet-threads") {
      opts.fleet_threads = bench::count_flag(arg, next(), 0);
    } else if (arg == "--train-fallback") {
      opts.train_fallback = true;
    } else if (arg == "--train-suite") {
      opts.train_suite = true;
    } else {
      std::fprintf(stderr,
                   "usage: serve_throughput [--tasks K] [--requests N] "
                   "[--wall-gate off] [--cluster-trace PATH] "
                   "[--cluster-scale F] [--fleet-threads N] "
                   "[--train-fallback] [--train-suite]\n");
      std::exit(2);
    }
  }
  // The suite has a fixed size; --train-suite would silently serve fewer
  // tasks than asked, so reject it here with the actual bound.
  const std::size_t suite_size = data::all_tasks().size();
  if (opts.tasks > suite_size) {
    std::fprintf(stderr,
                 "--tasks %zu exceeds the %zu-task suite; pass 1..%zu\n",
                 opts.tasks, suite_size, suite_size);
    std::exit(2);
  }
  if (opts.tasks < suite_size) {
    std::printf("# serving the first %zu of %zu suite tasks (--tasks %zu "
                "truncates the mix; pass --tasks %zu for the full suite)\n",
                opts.tasks, suite_size, opts.tasks, suite_size);
    std::fflush(stdout);
  }
  return opts;
}

void print_serving_row(const char* name, const serve::ServingReport& r) {
  std::printf(
      "%-24s %10.0f %9.3f %9.3f %5.1f%% %6.3f %7llu %9.4f %9.3f\n", name,
      r.throughput_stories_per_second, r.latency.p50_seconds * 1e3,
      r.latency.p99_seconds * 1e3, r.deadline_hit_rate * 100.0, r.accuracy,
      static_cast<unsigned long long>(r.model_uploads),
      r.energy.per_inference_joules * 1e3, r.host_wall_seconds);
}

/// Host legs: sequential, then workers + one shared cycle cache cold and
/// warm. Returns whether every gate held.
bool run_host_legs(const std::vector<serve::ServedModel>& models,
                   const BenchOptions& opts) {
  bench::print_header(
      "Host legs: sequential vs workers + service-cycle cache, cold then "
      "warm (N=4 dedicated, B=8, interarrival 500 cycles)");
  std::printf("%-24s %10s %9s %9s %6s %6s %7s %9s %9s\n", "leg",
              "stories/s", "p50 ms", "p99 ms", "hit%", "acc", "uploads",
              "mJ/inf", "wall s");
  bench::print_rule(100);
  serve::ServerConfig accept = bench::acceptance_config(models.size());
  const serve::ServingReport sequential =
      serve::run(accept, models, opts.requests);
  print_serving_row("sequential", sequential);

  accel::ServiceCycleCache cache(4096);
  accept.scheduler.workers = 4;
  accept.scheduler.cycle_cache = &cache;
  const serve::ServingReport cold =
      serve::run(accept, models, opts.requests);
  print_serving_row("W=4 +cache cold", cold);
  const serve::ServingReport warm =
      serve::run(accept, models, opts.requests);
  print_serving_row("W=4 +cache warm", warm);

  // The reports carry the shared cache's running totals; the warm
  // replay's own lookups are what the cold leg had not yet counted.
  const std::uint64_t warm_hits = warm.cycle_cache.hits - cold.cycle_cache.hits;
  const std::uint64_t warm_misses =
      warm.cycle_cache.misses - cold.cycle_cache.misses;
  const bool identical = serve::simulated_reports_identical(sequential, cold) &&
                         serve::simulated_reports_identical(sequential, warm);
  const auto speedup = [&](const serve::ServingReport& r) {
    return r.host_wall_seconds > 0.0
               ? sequential.host_wall_seconds / r.host_wall_seconds
               : 0.0;
  };
  const double cold_speedup = speedup(cold);
  const double warm_speedup = speedup(warm);
  std::printf(
      "\nhost wall: sequential %.3f s -> cold %.3f s (%.2fx) -> warm %.3f s "
      "(%.2fx); warm cache %llu hits / %llu misses; simulated reports %s\n",
      sequential.host_wall_seconds, cold.host_wall_seconds, cold_speedup,
      warm.host_wall_seconds, warm_speedup,
      static_cast<unsigned long long>(warm_hits),
      static_cast<unsigned long long>(warm_misses),
      identical ? "identical" : "DIVERGED");
  const bool timed = opts.requests >= 2000;
  const bool gate_cold = timed && opts.wall_gate;
  const bool ok = identical && warm_misses == 0 &&
                  (!timed || warm_speedup >= 5.0) &&
                  (!gate_cold || cold_speedup >= 3.0);
  std::printf("host check (identical simulation, warm replay re-simulates "
              "nothing%s%s): %s\n",
              timed ? ", >=5x warm wall" : "; no wall gate below 2000 requests",
              gate_cold ? ", >=3x cold wall" : "", ok ? "PASS" : "FAIL");
  return ok;
}

/// Fleet timing: the power-of-two fleet at `fleet_threads` host threads
/// vs 1. Returns whether its gates held; exits 2 on an unusable trace.
bool run_fleet_timing(const std::vector<serve::ServedModel>& models,
                      const BenchOptions& opts) {
  std::vector<serve::TraceEntry> trace;
  try {
    trace = serve::load_trace_csv(opts.cluster_trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  if (trace.empty()) {
    std::fprintf(stderr,
                 "--cluster-trace %s: trace has no entries; nothing to "
                 "route\n",
                 opts.cluster_trace_path.c_str());
    std::exit(2);
  }
  cluster::ClusterConfig fleet = bench::fleet_config(
      bench::trace_replay_config(std::move(trace), models.size()),
      opts.cluster_scale);
  const std::size_t requests = fleet.server.traffic.trace.size();
  bench::print_header("Fleet timing: " + std::to_string(fleet.instances) +
                      " instances, power-of-two routing, " +
                      std::to_string(requests) + " arrivals at 1 vs " +
                      std::to_string(opts.fleet_threads) + " host threads");
  const auto timed_run = [&](std::size_t threads,
                             cluster::ClusterReport& report) {
    cluster::ClusterConfig config = fleet;
    config.fleet_threads = threads;
    // Shards the shared cache so concurrent instances rarely collide on
    // one segment lock; host-side only, like the thread count.
    config.cache_segments = 2 * opts.fleet_threads;
    cluster::Cluster cluster(std::move(config), models);
    const auto start = std::chrono::steady_clock::now();
    report = cluster.run(requests);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    return wall.count();
  };
  cluster::ClusterReport threaded;
  cluster::ClusterReport single;
  const double wall_fleet = timed_run(opts.fleet_threads, threaded);
  const double wall_single = timed_run(1, single);
  const double ratio = wall_fleet > 0.0 ? wall_single / wall_fleet : 0.0;
  const std::size_t cores = std::thread::hardware_concurrency();
  const bool identical =
      cluster::simulated_cluster_reports_identical(single, threaded);
  const bool gate_wall = cores >= 4 && opts.fleet_threads >= 4;
  std::printf("fleet wall: 1 thread %.3f s vs %zu threads %.3f s -> %.2fx "
              "(%zu host cores); simulated reports %s\n",
              wall_single, opts.fleet_threads, wall_fleet, ratio, cores,
              identical ? "identical" : "DIVERGED");
  const bool ok = identical && (!gate_wall || ratio > 1.0);
  std::printf("fleet check (identical simulation%s): %s\n",
              gate_wall ? ", N threads beat 1 on wall"
                        : "; wall gate needs >= 4 cores and threads",
              ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_args(argc, argv);
  // --train-suite trains and caches any missing real-suite model.
  const std::vector<runtime::TaskArtifacts> tasks =
      opts.train_suite
          ? runtime::prepare_suite_cached(bench::suite_config(),
                                          "mann_bench_cache", opts.tasks)
          : bench::serving_suite(opts.tasks, opts.train_fallback);
  const std::vector<serve::ServedModel> models = bench::served_models(tasks);

  bool ok = run_host_legs(models, opts);
  if (!opts.cluster_trace_path.empty()) {
    if (opts.fleet_threads > 1) {
      ok = run_fleet_timing(models, opts) && ok;
    } else {
      std::printf("\n(fleet timing skipped: --fleet-threads < 2)\n");
    }
  }
  return ok ? 0 : 1;
}
