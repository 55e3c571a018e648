// Trace generator: records a synthetic arrival schedule to CSV.
//
// Runs the same TrafficGenerator the serving runtime uses (so the
// recorded schedule is exactly what a live run with these knobs would
// have seen) and writes `arrival_cycle,task_id,tenant_id` rows (the v2
// trace format; replaying a tenantless v1 trace still works) for the
// trace-replay process to consume. With `--tenants N` each arrival is
// labelled with one of N equal-share tenants, drawn from the generator's
// dedicated tenant RNG stream — so the arrival timing is identical to a
// tenantless recording with the same seed.
//
// The checked-in sample trace was produced by this tool; regenerate it
// with:
//
//   mann_make_trace --out bench/traces/sample_diurnal.csv --requests 2000
//       --tasks 20 --tenants 3 --process diurnal --mean-interarrival 2000
//
//   mann_make_trace --out trace.csv [--requests N] [--tasks K]
//                   [--tenants T]
//                   [--process poisson|bursty|diurnal]
//                   [--mean-interarrival C] [--seed S]
//                   [--diurnal-amplitude A] [--diurnal-period P]
//                   [--in PATH] [--scale F]
//
// With `--in PATH` the tool amplifies an existing recording instead of
// generating one: every original row is kept verbatim and `--scale F`
// adds F-1 jittered replicas per row (serve::scale_trace — the offsets
// are deterministic in --seed, so two runs produce byte-identical
// amplified traces). This is how the cluster bench's 10x diurnal volume
// is produced from the committed 1x sample. `--scale` also composes
// with generation: the synthetic schedule is amplified before writing.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/request.hpp"
#include "serve/tenant.hpp"
#include "serve/trace.hpp"

namespace {

using namespace mann;

struct Options {
  std::string out;
  std::string in;          ///< amplify this recording instead of generating
  std::size_t scale = 1;   ///< keep originals, add scale-1 jittered replicas
  std::size_t requests = 2'000;
  std::size_t tasks = 4;
  std::size_t tenants = 1;
  serve::ArrivalProcess process = serve::ArrivalProcess::kDiurnal;
  double mean_interarrival = 2'000.0;
  double diurnal_amplitude = 0.6;
  double diurnal_period = 2.0e6;
  std::uint64_t seed = 2019;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: mann_make_trace --out PATH [--requests N] [--tasks K]\n"
      "                       [--tenants T]\n"
      "                       [--process poisson|bursty|diurnal]\n"
      "                       [--mean-interarrival CYCLES] [--seed S]\n"
      "                       [--diurnal-amplitude A] [--diurnal-period P]\n"
      "                       [--in PATH] [--scale F]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      opts.out = next();
    } else if (arg == "--in") {
      opts.in = next();
    } else if (arg == "--scale") {
      opts.scale = bench::count_flag(arg, next(), 1);
    } else if (arg == "--requests") {
      opts.requests = bench::count_flag(arg, next(), 1);
    } else if (arg == "--tasks") {
      opts.tasks = bench::count_flag(arg, next(), 1);
    } else if (arg == "--tenants") {
      opts.tenants = bench::count_flag(arg, next(), 1);
    } else if (arg == "--process") {
      const std::string p = next();
      if (p == "poisson") {
        opts.process = serve::ArrivalProcess::kPoisson;
      } else if (p == "bursty") {
        opts.process = serve::ArrivalProcess::kBursty;
      } else if (p == "diurnal") {
        opts.process = serve::ArrivalProcess::kDiurnal;
      } else {
        usage();
      }
    } else if (arg == "--mean-interarrival") {
      opts.mean_interarrival = bench::real_flag(arg, next());
    } else if (arg == "--diurnal-amplitude") {
      opts.diurnal_amplitude = bench::real_flag(arg, next());
    } else if (arg == "--diurnal-period") {
      opts.diurnal_period = bench::real_flag(arg, next());
    } else if (arg == "--seed") {
      opts.seed = bench::count_flag(arg, next(), 0);
    } else {
      usage();
    }
  }
  if (opts.out.empty()) {
    usage();
  }
  return opts;
}

int run(const Options& opts) {
  std::vector<serve::TraceEntry> entries;
  if (!opts.in.empty()) {
    // Amplification mode: the recording fixes tasks/tenants/timing; the
    // generation knobs do not apply.
    entries = serve::load_trace_csv(opts.in);
    if (entries.empty()) {
      std::fprintf(stderr, "--in %s: trace has no entries\n",
                   opts.in.c_str());
      return 2;
    }
  } else {
    serve::TrafficConfig config;
    config.process = opts.process;
    config.mean_interarrival_cycles = opts.mean_interarrival;
    config.diurnal_amplitude = opts.diurnal_amplitude;
    config.diurnal_period_cycles = opts.diurnal_period;
    config.seed = opts.seed;
    if (opts.tenants > 1) {
      // Equal traffic shares; the registry's QoS knobs (tier, weight,
      // quota) are the replayer's business, not the recording's.
      config.tenants.assign(opts.tenants, serve::TenantConfig{});
    }

    serve::TrafficGenerator generator(config, opts.tasks, opts.requests);
    entries.reserve(opts.requests);
    while (const auto arrival = generator.poll(sim::kNever - 1)) {
      entries.push_back(*arrival);
    }
  }

  const std::size_t original = entries.size();
  if (opts.scale > 1) {
    entries = serve::scale_trace(entries, opts.scale, opts.seed);
  }

  serve::save_trace_csv(opts.out, entries);
  if (opts.scale > 1) {
    std::printf(
        "wrote %zu arrivals (%zu originals x%zu, jitter seed %llu) over "
        "%llu cycles to %s\n",
        entries.size(), original, opts.scale,
        static_cast<unsigned long long>(opts.seed),
        static_cast<unsigned long long>(entries.back().arrival_cycle),
        opts.out.c_str());
  } else if (!opts.in.empty()) {
    std::printf("wrote %zu arrivals (copy of %s) over %llu cycles to %s\n",
                entries.size(), opts.in.c_str(),
                static_cast<unsigned long long>(entries.back().arrival_cycle),
                opts.out.c_str());
  } else {
    std::printf(
        "wrote %zu arrivals over %llu cycles (%zu tasks, %zu tenants) to "
        "%s\n",
        entries.size(),
        static_cast<unsigned long long>(entries.back().arrival_cycle),
        opts.tasks, opts.tenants, opts.out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  // A malformed --in trace, an unwritable --out or a count too large to
  // hold in memory exits 2 with the reason instead of aborting.
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
