// mann_served: a long-running serving daemon over a cluster::Cluster of
// serve::ServerSession instances (cluster/cluster.hpp, serve/session.hpp).
//
// Where mann_cli and the benches run one closed loop and exit, this tool
// keeps a fleet open and speaks a line protocol on stdin: one read-eval
// loop on the main thread reads a line, executes it, replies, streams
// what resolved and flushes, then reads the next — the synchronous
// request/response host loop of the paper's runtime. Every command is
// answered before the next line is read, so the whole output is a pure
// function of the input line sequence.
//
// The daemon always drives one Cluster: --cluster N instances behind a
// router, 1 by default (0 exits 2). A fleet of one serves exactly like a
// bare session, so there is one protocol and one report schema.
//
// Protocol (one command per line; every command answers `ok ...` or
// `err ...`, and resolved requests stream as `done`/`shed` lines tagged
// `instance=<i>`, the instance that resolved them):
//
//   submit <task> [tenant] [deadline] [at]   inject one request.
//                        deadline: relative cycles (0 = SLO default);
//                        at: absolute arrival cycle (0 = fleet clock;
//                        clamped monotone).
//                        -> ok id=<id> instance=<i> at=<cycle>, or
//                           ok shed=router when the router refuses it
//   info                 a fleet line plus one `info[i]` line per
//                        instance (also emitted every --info-every N
//                        resolved requests)
//   config tenant <id> <tier> <weight> <quota_interarrival>
//                 <quota_burst> <slo>        live-replace one tenant's
//                        contract (admission + WFQ weight + SLO stamp)
//   config slo <default> [per-task...]       live-replace the SLO table
//   config policy fifo|edf|wfq               live-switch dispatch policy
//                        (wfq needs a fleet started with --policy wfq,
//                        which is the default for --tenants >= 2)
//   trace on|off         gate lifecycle trace recording (--trace-json)
//   step [cycles]        advance explicitly (default: to quiescence;
//                        a horizon past the last cycle saturates)
//   drain                end-of-stream: flush sub-size batches from now
//                        on and stop holding the lockstep horizon
//   quit                 finalize, report, exit (EOF behaves like quit)
//
// `config` fans out to every instance. --router picks the routing policy
// (affinity = consistent-hash task affinity, p2c = power-of-two-choices,
// spill = tenant home + spill set; default p2c).
//
// Clocking: a valid submit first steps the fleet to its arrival cycle
// (exclusive), then routes it — the order Cluster::run() uses, so a
// load-aware router sees every completion before the arrival. By
// default each command is then followed by an advance to quiescence
// (submitted work completes immediately — interactive, but batches
// rarely fill). Under --lockstep the daemon never advances past the
// last submitted arrival cycle (exclusive), so a driver that submits a
// recorded schedule gets the exact closed-loop timeline: routing,
// batching, admission and dispatch all see the same state at the same
// cycles, and the final report is byte-identical to --closed-loop over
// the same trace. `drain` lifts the horizon. The CI replay-equivalence
// legs pipe bench/traces/sample_diurnal.csv through
// scripts/served_client.py in this mode, with one instance and with a
// 4-instance p2c fleet, and diff each report against --closed-loop.
//
// One-shot mode (no daemon):
//   --closed-loop FILE   serve the trace CSV via Cluster::run() (the
//                        closed loop serve::run() shares) and write the
//                        report JSON the daemon writes — the comparison
//                        baseline.
//
// --report-json writes the deterministic slice of the ClusterReport:
// fleet totals, merged-stream percentiles and fleet energy, and under
// each per_instance entry that instance's full serving report slice.
//
// Workload: --tiny N serves N synthetic untrained tasks (shape-only cost
// model; instant startup, used by the pipe-driven tests); --tasks K
// loads K trained tasks from the shared mann_bench_cache suite
// (--train-fallback to train stand-ins inline when the cache is absent).
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "accel/compiler.hpp"
#include "cluster/cluster.hpp"
#include "common.hpp"
#include "data/types.hpp"
#include "model/memn2n.hpp"
#include "numeric/random.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/measurement.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"

namespace {

using namespace mann;

struct DaemonOptions {
  std::size_t tiny = 0;       ///< synthetic tasks (0 = use the suite)
  std::size_t tasks = 4;      ///< suite tasks when tiny == 0
  bool train_fallback = false;
  std::size_t tenants = 0;    ///< registry size (0 = single default)
  sim::Cycle slo = 0;         ///< default SLO deadline (0 = none)
  std::size_t devices = 1;
  std::size_t dedicated = 0;
  std::size_t max_batch = 8;
  std::optional<serve::SchedulerPolicy> policy;  ///< default: see below
  std::size_t cluster = 1;  ///< fleet size (instances behind the router)
  cluster::RouterPolicyKind router = cluster::RouterPolicyKind::kPowerOfTwo;
  bool lockstep = false;
  std::size_t info_every = 0;  ///< info line per N resolved requests
  std::string report_json;
  std::string trace_json;
  std::string closed_loop;  ///< trace CSV: one-shot run, then exit
  std::uint64_t seed = 2019;
};

[[noreturn]] void usage(int code) {
  std::fprintf(
      stderr,
      "usage: mann_served [--tiny N | --tasks K [--train-fallback]]\n"
      "                   [--tenants N] [--slo CYCLES] [--devices N]\n"
      "                   [--dedicated N] [--max-batch B]\n"
      "                   [--policy fifo|edf|wfq] [--lockstep]\n"
      "                   [--cluster N] [--router affinity|p2c|spill]\n"
      "                   [--info-every N] [--report-json PATH]\n"
      "                   [--trace-json PATH] [--seed S]\n"
      "                   [--closed-loop TRACE.csv]\n"
      "Line protocol on stdin: submit/info/config/trace/step/drain/quit\n"
      "(see the header of tools/mann_served.cpp or README \"Running the\n"
      "daemon\").\n");
  std::exit(code);
}

DaemonOptions parse_args(int argc, char** argv) {
  DaemonOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--tiny") {
      opts.tiny = bench::count_flag(arg, next());
    } else if (arg == "--tasks") {
      opts.tasks = bench::count_flag(arg, next());
    } else if (arg == "--train-fallback") {
      opts.train_fallback = true;
    } else if (arg == "--tenants") {
      opts.tenants = bench::count_flag(arg, next());
    } else if (arg == "--slo") {
      opts.slo = bench::count_flag(arg, next());
    } else if (arg == "--devices") {
      opts.devices =
          std::max<std::uint64_t>(1, bench::count_flag(arg, next()));
    } else if (arg == "--dedicated") {
      opts.dedicated = bench::count_flag(arg, next());
    } else if (arg == "--max-batch") {
      opts.max_batch =
          std::max<std::uint64_t>(1, bench::count_flag(arg, next()));
    } else if (arg == "--policy") {
      const std::string value = next();
      if (value == "fifo") {
        opts.policy = serve::SchedulerPolicy::kFifo;
      } else if (value == "edf") {
        opts.policy = serve::SchedulerPolicy::kEdf;
      } else if (value == "wfq") {
        opts.policy = serve::SchedulerPolicy::kWfq;
      } else {
        std::fprintf(stderr, "--policy must be fifo, edf or wfq\n");
        usage(2);
      }
    } else if (arg == "--cluster") {
      opts.cluster = bench::count_flag(arg, next());
      if (opts.cluster == 0) {
        std::fprintf(stderr, "--cluster needs at least one instance\n");
        usage(2);
      }
    } else if (arg == "--router") {
      const std::string value = next();
      if (value == "affinity") {
        opts.router = cluster::RouterPolicyKind::kTaskAffinity;
      } else if (value == "p2c") {
        opts.router = cluster::RouterPolicyKind::kPowerOfTwo;
      } else if (value == "spill") {
        opts.router = cluster::RouterPolicyKind::kTenantSpill;
      } else {
        std::fprintf(stderr, "--router must be affinity, p2c or spill\n");
        usage(2);
      }
    } else if (arg == "--lockstep") {
      opts.lockstep = true;
    } else if (arg == "--info-every") {
      opts.info_every = bench::count_flag(arg, next());
    } else if (arg == "--report-json") {
      opts.report_json = next();
    } else if (arg == "--trace-json") {
      opts.trace_json = next();
    } else if (arg == "--seed") {
      opts.seed = bench::count_flag(arg, next());
    } else if (arg == "--closed-loop") {
      opts.closed_loop = next();
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      usage(2);
    }
  }
  return opts;
}

// ---------------------------------------------------------------- models

/// The workload kept alive behind the ServedModel spans.
struct Workload {
  std::vector<runtime::TaskArtifacts> suite;        ///< suite mode
  std::vector<std::vector<data::EncodedStory>> corpora;  ///< tiny mode
  std::vector<serve::ServedModel> models;
};

/// Synthetic untrained tasks: queueing/scheduling behaviour only depends
/// on shapes, so tiny models give an instant-startup daemon for tests.
Workload tiny_workload(std::size_t tasks) {
  model::ModelConfig config;
  config.vocab_size = 12;
  config.embedding_dim = 8;
  config.hops = 2;
  config.max_memory = 8;
  Workload w;
  for (std::size_t t = 0; t < tasks; ++t) {
    std::vector<data::EncodedStory> stories;
    for (std::size_t i = 0; i < 32; ++i) {
      data::EncodedStory story;
      const auto word = [&](std::size_t k) {
        return static_cast<std::int32_t>((i + k) % 12);
      };
      story.context = {{word(0), word(1)}, {word(2), word(3)}};
      story.question = {word(4)};
      story.answer = word(5);
      stories.push_back(story);
    }
    w.corpora.push_back(std::move(stories));
    numeric::Rng rng(7 + t);
    const model::MemN2N net(config, rng);
    serve::ServedModel model;
    model.program = accel::compile_model(net);
    model.stories = w.corpora.back();
    w.models.push_back(std::move(model));
  }
  return w;
}

Workload suite_workload(const DaemonOptions& opts) {
  Workload w;
  w.suite = bench::serving_suite(opts.tasks, opts.train_fallback);
  w.models = bench::served_models(w.suite);
  return w;
}

// ---------------------------------------------------------------- config

serve::ServerConfig make_config(const DaemonOptions& opts,
                                obs::MetricsRegistry* metrics,
                                obs::TraceRecorder* trace) {
  serve::ServerConfig config;
  config.traffic.seed = opts.seed;
  config.traffic.tenants.resize(opts.tenants);
  config.traffic.slo.default_deadline_cycles =
      opts.slo == 0 ? sim::kNever : opts.slo;
  config.batcher.max_batch = opts.max_batch;
  config.scheduler.devices = opts.devices;
  config.scheduler.dedicated_devices = std::min(opts.dedicated, opts.devices);
  // WFQ by default once there is more than one tenant: the tenant lanes
  // it lays out are what makes a later `config policy wfq|edf` switch
  // possible at all (lanes are a construction-time layout decision).
  config.scheduler.policy = opts.policy.value_or(
      opts.tenants >= 2 ? serve::SchedulerPolicy::kWfq
                        : serve::SchedulerPolicy::kEdf);
  config.metrics = metrics;
  config.trace = trace;
  return config;
}

// ---------------------------------------------------------------- report

void write_summary_json(std::FILE* f, const char* pad, const char* name,
                        const serve::LatencySummary& s) {
  std::fprintf(f, "%s\"%s\": {\"mean\": %.3f, \"p50\": %.3f, \"p95\": %.3f, "
               "\"p99\": %.3f, \"max\": %.3f},\n",
               pad, name, s.mean_cycles, s.p50_cycles, s.p95_cycles,
               s.p99_cycles, s.max_cycles);
}

void write_deadline_json(std::FILE* f, const char* pad, std::uint64_t total,
                         std::uint64_t missed, double hit_rate) {
  std::fprintf(f, "%s\"deadline\": {\"total\": %llu, \"missed\": %llu, "
               "\"hit_rate\": %.9f},\n",
               pad, static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(missed), hit_rate);
}

/// One instance's serving report, one field per line at indent `pad`.
void write_serving_json(std::FILE* f, const char* pad,
                        const serve::ServingReport& r) {
  std::fprintf(f, "%s\"offered\": %zu,\n", pad, r.offered);
  std::fprintf(f, "%s\"completed\": %zu,\n", pad, r.completed);
  std::fprintf(f, "%s\"rejected\": %zu,\n", pad, r.rejected);
  std::fprintf(f, "%s\"makespan_cycles\": %llu,\n", pad,
               static_cast<unsigned long long>(r.makespan_cycles));
  std::fprintf(f, "%s\"throughput_stories_per_second\": %.6f,\n", pad,
               r.throughput_stories_per_second);
  std::fprintf(f, "%s\"accuracy\": %.9f,\n", pad, r.accuracy);
  std::fprintf(f, "%s\"early_exit_rate\": %.9f,\n", pad, r.early_exit_rate);
  write_summary_json(f, pad, "latency_cycles", r.latency);
  write_summary_json(f, pad, "queue_wait_cycles", r.queue_wait);
  write_deadline_json(f, pad, r.deadline_total, r.deadline_missed,
                      r.deadline_hit_rate);
  std::fprintf(f, "%s\"shed\": {\"queue_full\": %llu, \"quota\": %llu, "
               "\"doomed\": %llu, \"overload\": %llu},\n",
               pad,
               static_cast<unsigned long long>(
                   r.shed.count(serve::ShedReason::kQueueFull)),
               static_cast<unsigned long long>(
                   r.shed.count(serve::ShedReason::kQuota)),
               static_cast<unsigned long long>(
                   r.shed.count(serve::ShedReason::kDoomed)),
               static_cast<unsigned long long>(
                   r.shed.count(serve::ShedReason::kOverload)));
  std::fprintf(f, "%s\"fairness_index\": %.9f,\n", pad, r.fairness_index);
  std::fprintf(f, "%s\"tenants\": [", pad);
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    const serve::TenantReport& t = r.tenants[i];
    std::fprintf(f,
                 "%s\n%s  {\"tenant\": %u, \"tier\": %u, \"weight\": %.6f, "
                 "\"admitted\": %llu, \"completed\": %llu, "
                 "\"with_deadline\": %llu, \"violations\": %llu, "
                 "\"shed\": %llu}",
                 i == 0 ? "" : ",", pad, t.tenant, t.tier, t.weight,
                 static_cast<unsigned long long>(t.admitted),
                 static_cast<unsigned long long>(t.completed),
                 static_cast<unsigned long long>(t.with_deadline),
                 static_cast<unsigned long long>(t.violations),
                 static_cast<unsigned long long>(t.shed.total()));
  }
  std::fprintf(f, "%s%s],\n", r.tenants.empty() ? "" : "\n",
               r.tenants.empty() ? "" : pad);
  std::fprintf(f, "%s\"mean_batch_size\": %.6f,\n", pad, r.mean_batch_size);
  std::fprintf(f, "%s\"batching_efficiency\": %.6f,\n", pad,
               r.batching_efficiency);
  std::fprintf(f, "%s\"mean_device_utilization\": %.9f,\n", pad,
               r.mean_device_utilization);
  std::fprintf(f, "%s\"model_uploads\": %llu,\n", pad,
               static_cast<unsigned long long>(r.model_uploads));
  std::fprintf(f, "%s\"model_evictions\": %llu,\n", pad,
               static_cast<unsigned long long>(r.model_evictions));
  std::fprintf(f, "%s\"stolen_batches\": %llu,\n", pad,
               static_cast<unsigned long long>(r.stolen_batches));
  std::fprintf(f, "%s\"energy\": {\"total_joules\": %.9f, "
               "\"per_inference_joules\": %.9f}\n",
               pad, r.energy.total_joules, r.energy.per_inference_joules);
}

/// The deterministic slice of a ClusterReport, as stable JSON: every
/// field here is a pure function of the simulated timeline, so two runs
/// that serve the same schedule must produce byte-identical files — the
/// CI replay-equivalence gate diffs them directly. Host-dependent fields
/// (wall clock, worker count, cycle-cache hit rates) are deliberately
/// absent.
void write_report_json(const std::string& path,
                       const cluster::ClusterReport& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"instances\": %zu,\n", r.instances);
  std::fprintf(f, "  \"policy\": \"%s\",\n", r.policy.c_str());
  std::fprintf(f, "  \"offered\": %zu,\n", r.offered);
  std::fprintf(f, "  \"completed\": %zu,\n", r.completed);
  std::fprintf(f, "  \"rejected\": %zu,\n", r.rejected);
  std::fprintf(f, "  \"router_shed\": %zu,\n", r.router_shed);
  std::fprintf(f, "  \"makespan_cycles\": %llu,\n",
               static_cast<unsigned long long>(r.makespan_cycles));
  std::fprintf(f, "  \"throughput_stories_per_second\": %.6f,\n",
               r.throughput_stories_per_second);
  write_summary_json(f, "  ", "latency_cycles", r.latency);
  write_summary_json(f, "  ", "queue_wait_cycles", r.queue_wait);
  write_deadline_json(f, "  ", r.deadline_total, r.deadline_missed,
                      r.deadline_hit_rate);
  std::fprintf(f, "  \"instance_fairness\": %.9f,\n", r.instance_fairness);
  std::fprintf(f, "  \"model_uploads\": %llu,\n",
               static_cast<unsigned long long>(r.model_uploads));
  std::fprintf(f, "  \"warm_dispatch_rate\": %.9f,\n", r.warm_dispatch_rate);
  std::fprintf(f, "  \"energy\": {\"total_joules\": %.9f, "
               "\"per_inference_joules\": %.9f},\n",
               r.energy.total_joules, r.energy.per_inference_joules);
  std::fprintf(f, "  \"mean_active_instances\": %.6f,\n",
               r.mean_active_instances);
  std::fprintf(f, "  \"scale_ups\": %zu,\n", r.scale_ups);
  std::fprintf(f, "  \"scale_downs\": %zu,\n", r.scale_downs);
  std::fprintf(f, "  \"per_instance\": [");
  for (std::size_t i = 0; i < r.instance_reports.size(); ++i) {
    const cluster::InstanceReport& inst = r.instance_reports[i];
    std::fprintf(f,
                 "%s\n    {\"id\": %zu, \"routed\": %llu, "
                 "\"active_cycles\": %llu, \"report\": {\n",
                 i == 0 ? "" : ",", inst.id,
                 static_cast<unsigned long long>(inst.routed),
                 static_cast<unsigned long long>(inst.active_cycles));
    write_serving_json(f, "      ", inst.report);
    std::fprintf(f, "    }}");
  }
  std::fprintf(f, "%s]\n", r.instance_reports.empty() ? "" : "\n  ");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Fleet template from the daemon knobs: each instance gets the full
/// per-instance stack (make_config); the router/autoscaler ride on top.
/// The daemon never autoscales — parking decisions belong to recorded
/// schedules with a known span (the bench), not an open stdin stream.
cluster::ClusterConfig make_cluster_config(const DaemonOptions& opts,
                                           serve::ServerConfig server) {
  cluster::ClusterConfig config;
  config.instances = opts.cluster;
  config.server = std::move(server);
  config.router.kind = opts.router;
  config.router.seed = opts.seed;
  return config;
}

// ------------------------------------------------------------ closed loop

/// One-shot comparison baseline: the recorded schedule served by the
/// closed loop (Cluster::run over kTrace traffic).
int run_closed_loop(const DaemonOptions& opts, const Workload& workload) {
  std::vector<serve::TraceEntry> trace;
  try {
    trace = serve::load_trace_csv(opts.closed_loop);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (trace.empty()) {
    std::fprintf(stderr, "--closed-loop %s: trace has no entries\n",
                 opts.closed_loop.c_str());
    return 2;
  }
  serve::ServerConfig config = make_config(opts, nullptr, nullptr);
  config.traffic.process = serve::ArrivalProcess::kTrace;
  for (serve::TraceEntry& entry : trace) {
    entry.task %= workload.models.size();
    if (opts.tenants > 0 && entry.tenant >= opts.tenants) {
      std::fprintf(stderr,
                   "trace names tenant %u but --tenants is %zu\n",
                   entry.tenant, opts.tenants);
      return 2;
    }
  }
  config.traffic.trace = trace;
  cluster::Cluster fleet(make_cluster_config(opts, std::move(config)),
                         workload.models);
  const cluster::ClusterReport report = fleet.run(trace.size());
  if (!opts.report_json.empty()) {
    write_report_json(opts.report_json, report);
  }
  std::printf("closed-loop instances=%zu policy=%s offered=%zu "
              "completed=%zu rejected=%zu router_shed=%zu makespan=%llu\n",
              report.instances, report.policy.c_str(), report.offered,
              report.completed, report.rejected, report.router_shed,
              static_cast<unsigned long long>(report.makespan_cycles));
  return 0;
}

// ---------------------------------------------------------------- daemon

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(
        static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    std::size_t start = i;
    while (i < line.size() && std::isspace(
        static_cast<unsigned char>(line[i])) == 0) {
      ++i;
    }
    if (i > start) {
      tokens.push_back(line.substr(start, i - start));
    }
  }
  return tokens;
}

/// The command executor over the fleet. Commands execute strictly in
/// input order, and each command is followed by one pump (advance +
/// stream resolved requests), so the entire output byte stream is a
/// pure function of the input line sequence.
class Manager {
 public:
  Manager(const DaemonOptions& opts, cluster::Cluster& fleet,
          obs::TraceRecorder* trace)
      : opts_(opts), fleet_(fleet), trace_(trace) {}

  /// True while the daemon should keep reading commands.
  [[nodiscard]] bool running() const noexcept { return !quitting_; }

  void execute(const std::string& line) {
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) {
      return;  // blank line: no-op, no reply
    }
    try {
      dispatch(tokens);
    } catch (const std::exception& e) {
      std::printf("err %s\n", e.what());
    }
    if (!quitting_) {
      pump();
    }
    std::fflush(stdout);
  }

  /// EOF or quit: drain, run to quiescence, stream the tail, report.
  void finish() {
    // Cluster::finalize() folds (and discards) any still-pending
    // completions into its percentiles, so stream the tail first; the
    // drain + quiescence pass below makes finalize's own a no-op.
    fleet_.drain();
    (void)fleet_.step_until(sim::kNever);
    emit_completions();
    const cluster::ClusterReport report = fleet_.finalize();
    std::printf("bye offered=%zu completed=%zu rejected=%zu "
                "router_shed=%zu makespan=%llu\n",
                report.offered, report.completed, report.rejected,
                report.router_shed,
                static_cast<unsigned long long>(report.makespan_cycles));
    if (!opts_.report_json.empty()) {
      write_report_json(opts_.report_json, report);
    }
    std::fflush(stdout);
  }

 private:
  [[noreturn]] static void fail(const std::string& message) {
    throw std::runtime_error(message);
  }

  static std::uint64_t parse_count(const std::string& token,
                                   const char* what) {
    const std::optional<std::uint64_t> parsed = serve::parse_digits(token);
    if (!parsed.has_value()) {
      fail(std::string(what) + " needs a non-negative integer, got '" +
           token + "'");
    }
    return *parsed;
  }

  /// parse_count for 32-bit fields (tenant ids, tiers): a wider value
  /// must be refused, not truncated into some other tenant.
  static std::uint32_t parse_u32(const std::string& token, const char* what) {
    const std::uint64_t parsed = parse_count(token, what);
    if (parsed > std::numeric_limits<std::uint32_t>::max()) {
      fail(std::string(what) + " must fit in 32 bits, got '" + token + "'");
    }
    return static_cast<std::uint32_t>(parsed);
  }

  /// The tools' real-number rule (serve::parse_real): the whole token
  /// is one finite number.
  static double parse_real(const std::string& token, const char* what) {
    const std::optional<double> parsed = serve::parse_real(token);
    if (!parsed.has_value()) {
      fail(std::string(what) + " needs a finite number, got '" + token +
           "'");
    }
    return *parsed;
  }

  void dispatch(const std::vector<std::string>& tokens) {
    const std::string& command = tokens[0];
    if (command == "submit") {
      cmd_submit(tokens);
    } else if (command == "info") {
      print_info();
    } else if (command == "config") {
      cmd_config(tokens);
    } else if (command == "trace") {
      cmd_trace(tokens);
    } else if (command == "step") {
      cmd_step(tokens);
    } else if (command == "drain") {
      fleet_.drain();
      drained_ = true;
      std::printf("ok drain\n");
    } else if (command == "quit") {
      quitting_ = true;
      std::printf("ok quit\n");
    } else {
      fail("unknown command '" + command + "' (submit info config trace "
           "step drain quit)");
    }
  }

  void cmd_submit(const std::vector<std::string>& tokens) {
    if (tokens.size() < 2 || tokens.size() > 5) {
      fail("submit <task> [tenant] [deadline] [at]");
    }
    serve::SubmitRequest request;
    request.task = parse_count(tokens[1], "task");
    if (tokens.size() > 2) {
      request.tenant = parse_u32(tokens[2], "tenant");
    }
    if (tokens.size() > 3) {
      request.deadline_cycles = parse_count(tokens[3], "deadline");
    }
    if (tokens.size() > 4) {
      request.at_cycle = parse_count(tokens[4], "at");
    }
    // Refuse before any clock moves, then step the fleet to the arrival
    // (exclusive) so the router sees every completion before it:
    // Cluster::run()'s order.
    fleet_.check_submit(request);
    (void)fleet_.step_until(
        std::max(request.at_cycle, fleet_.last_submitted_arrival()));
    const cluster::Cluster::Submission sub = fleet_.submit(request);
    if (!sub.instance.has_value()) {
      std::printf("ok shed=router\n");
      return;
    }
    std::printf("ok id=%llu instance=%zu at=%llu\n",
                static_cast<unsigned long long>(sub.id), *sub.instance,
                static_cast<unsigned long long>(
                    fleet_.last_submitted_arrival()));
  }

  void cmd_config(const std::vector<std::string>& tokens) {
    if (tokens.size() < 2) {
      fail("config tenant|slo|policy ...");
    }
    const std::string& what = tokens[1];
    if (what == "tenant") {
      if (tokens.size() != 8) {
        fail("config tenant <id> <tier> <weight> <quota_interarrival> "
             "<quota_burst> <slo>");
      }
      const serve::TenantId id = parse_u32(tokens[2], "tenant id");
      serve::TenantConfig config;
      config.tier = parse_u32(tokens[3], "tier");
      config.weight = parse_real(tokens[4], "weight");
      config.quota_interarrival_cycles =
          parse_real(tokens[5], "quota_interarrival");
      config.quota_burst = parse_real(tokens[6], "quota_burst");
      config.slo_deadline_cycles = parse_count(tokens[7], "slo");
      fleet_.set_tenant(id, config);
      std::printf("ok config tenant %u\n", id);
    } else if (what == "slo") {
      if (tokens.size() < 3) {
        fail("config slo <default_deadline> [per-task...]");
      }
      serve::SloConfig slo;
      const std::uint64_t fallback =
          parse_count(tokens[2], "default deadline");
      slo.default_deadline_cycles = fallback == 0 ? sim::kNever : fallback;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        slo.per_task.push_back(parse_count(tokens[i], "per-task deadline"));
      }
      fleet_.set_slo(slo);
      std::printf("ok config slo\n");
    } else if (what == "policy") {
      if (tokens.size() != 3) {
        fail("config policy fifo|edf|wfq");
      }
      serve::SchedulerPolicy policy;
      if (tokens[2] == "fifo") {
        policy = serve::SchedulerPolicy::kFifo;
      } else if (tokens[2] == "edf") {
        policy = serve::SchedulerPolicy::kEdf;
      } else if (tokens[2] == "wfq") {
        policy = serve::SchedulerPolicy::kWfq;
      } else {
        fail("config policy fifo|edf|wfq");
        return;
      }
      if (fleet_.set_policy(policy)) {
        std::printf("ok config policy %s\n", tokens[2].c_str());
      } else {
        std::printf("err policy wfq needs a fleet started under wfq "
                    "(tenant lanes are fixed at construction)\n");
      }
    } else {
      fail("config tenant|slo|policy ...");
    }
  }

  void cmd_trace(const std::vector<std::string>& tokens) {
    if (tokens.size() != 2 || (tokens[1] != "on" && tokens[1] != "off")) {
      fail("trace on|off");
    }
    if (trace_ == nullptr) {
      fail("no trace recorder attached (start with --trace-json PATH)");
    }
    trace_->set_enabled(tokens[1] == "on");
    std::printf("ok trace %s\n", tokens[1].c_str());
  }

  void cmd_step(const std::vector<std::string>& tokens) {
    if (tokens.size() > 2) {
      fail("step [cycles]");
    }
    const sim::Cycle cycles =
        tokens.size() == 2 ? parse_count(tokens[1], "cycles") : 0;
    // step N advances the lockstep horizon by N, saturating instead of
    // wrapping past sim::kNever; step (or step 0) runs to quiescence.
    const sim::Cycle now = fleet_.now();
    const bool idle = fleet_.step_until(
        cycles == 0 || cycles >= sim::kNever - now ? sim::kNever
                                                   : now + cycles);
    std::printf("ok step cycle=%llu idle=%d\n",
                static_cast<unsigned long long>(fleet_.now()), idle ? 1 : 0);
  }

  /// Advance per the clocking mode, then stream resolved requests. Under
  /// lockstep the last submit already stepped to its arrival, the
  /// horizon held until `drain`.
  void pump() {
    if (!opts_.lockstep || drained_) {
      (void)fleet_.step_until(sim::kNever);
    }
    emit_completions();
  }

  void emit_completions() {
    for (const cluster::ClusterCompletion& c : fleet_.poll_completions()) {
      emit_resolved(c.completion, c.instance);
    }
  }

  /// One `done`/`shed` stream line, tagged with the resolving instance.
  void emit_resolved(const serve::Completion& c, cluster::InstanceId instance) {
    const serve::InferenceResponse& r = c.response;
    if (serve::outcome_is_shed(c.outcome)) {
      std::printf("shed id=%llu task=%zu tenant=%u reason=%s "
                  "cycle=%llu instance=%zu\n",
                  static_cast<unsigned long long>(r.id), r.task,
                  r.tenant, serve::request_outcome_name(c.outcome),
                  static_cast<unsigned long long>(c.cycle), instance);
    } else {
      std::printf("done id=%llu task=%zu tenant=%u outcome=%s "
                  "enqueue=%llu complete=%llu latency=%llu instance=%zu\n",
                  static_cast<unsigned long long>(r.id), r.task,
                  r.tenant, serve::request_outcome_name(c.outcome),
                  static_cast<unsigned long long>(r.enqueue_cycle),
                  static_cast<unsigned long long>(r.complete_cycle),
                  static_cast<unsigned long long>(r.latency_cycles()),
                  instance);
    }
    ++resolved_since_info_;
    if (opts_.info_every > 0 && resolved_since_info_ >= opts_.info_every) {
      print_info();
      resolved_since_info_ = 0;
    }
  }

  void print_info() {
    const cluster::ClusterInfo fleet = fleet_.info();
    std::printf("info cycle=%llu instances=%zu active=%zu offered=%zu "
                "router_shed=%zu policy=%s\n",
                static_cast<unsigned long long>(fleet.cycle),
                fleet.instances, fleet.active, fleet.offered,
                fleet.router_shed, fleet_.policy_name());
    for (std::size_t i = 0; i < fleet.per_instance.size(); ++i) {
      const serve::SessionInfo& info = fleet.per_instance[i];
      std::printf("info[%zu] cycle=%llu offered=%zu admitted=%zu "
                  "completed=%zu shed=%zu pending=%zu in_flight=%zu "
                  "policy=%s draining=%d\n",
                  i, static_cast<unsigned long long>(info.cycle),
                  info.offered, info.admitted, info.completed, info.shed,
                  info.batcher_pending + info.scheduler_pending,
                  info.in_flight, serve::scheduler_policy_name(info.policy),
                  info.draining ? 1 : 0);
    }
  }

  const DaemonOptions& opts_;
  cluster::Cluster& fleet_;
  obs::TraceRecorder* trace_;
  std::size_t resolved_since_info_ = 0;
  bool drained_ = false;  ///< `drain` seen: lockstep no longer holds
  bool quitting_ = false;
};

int run_daemon(const DaemonOptions& opts, const Workload& workload) {
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace_recorder;
  obs::TraceRecorder* trace =
      opts.trace_json.empty() ? nullptr : &trace_recorder;
  if (trace != nullptr) {
    trace->set_enabled(false);  // armed by the `trace on` command
  }
  const serve::ServerConfig config = make_config(opts, &metrics, trace);
  cluster::Cluster fleet(make_cluster_config(opts, config), workload.models);
  std::printf("ready tasks=%zu tenants=%zu policy=%s lockstep=%d "
              "instances=%zu router=%s\n",
              workload.models.size(), std::max<std::size_t>(1, opts.tenants),
              serve::scheduler_policy_name(config.scheduler.policy),
              opts.lockstep ? 1 : 0, fleet.size(), fleet.policy_name());
  std::fflush(stdout);

  Manager manager(opts, fleet, trace);
  // One read-eval loop: each line is answered (and flushed) before the
  // next is read. `quit` or EOF ends the session; lines after a quit are
  // never read.
  std::string line;
  while (manager.running() && std::getline(std::cin, line)) {
    manager.execute(line);
  }
  manager.finish();  // streams the tail and writes --report-json
  if (trace != nullptr) {
    obs::write_chrome_trace(opts.trace_json, *trace, config.accel.clock_hz,
                            &metrics);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const DaemonOptions opts = parse_args(argc, argv);
  const Workload workload =
      opts.tiny > 0 ? tiny_workload(opts.tiny) : suite_workload(opts);
  if (workload.models.empty()) {
    std::fprintf(stderr, "no models to serve (--tiny N or --tasks K)\n");
    return 2;
  }
  try {
    if (!opts.closed_loop.empty()) {
      return run_closed_loop(opts, workload);
    }
    return run_daemon(opts, workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mann_served: %s\n", e.what());
    return 1;
  }
}
