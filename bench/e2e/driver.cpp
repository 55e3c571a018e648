// mann_e2e — one end-to-end benchmark workload per process.
//
//   mann_e2e --workload NAME --seed N --suite-dir DIR [--reps N]
//            [--reference] [--capacity] [--trace-out PATH]
//   mann_e2e --train-suite --suite-dir DIR
//   mann_e2e --selftest --seed N
//
// A process sets up (suite load from the trained-model cache, ITH
// calibration, compile_model, the first Server/Cluster), then runs
// `--reps` reps (default 2): the first is the cold rep, the rest are warm.
// Every rep builds a fresh Server or Cluster, so its cycle cache starts
// empty, and drives it through the public APIs of runtime, accel, serve
// and cluster on one host thread. The serving and cluster workloads
// submit each arrival of the benchmark's own schedule and step to it, in
// mann_served's lockstep pattern.
//
// The last line of stdout is one JSON object: set-up time, peak RSS, and
// per rep its host time (scaled to the probe's reference speed, CPU and
// wall; see host_clock.hpp), counts, sim_digest (a hash of every
// deterministic result) and the simulated end-to-end and per-layer
// numbers. Any failed check is listed under "errors", counts the rep's
// requests as failed and makes the exit code 1. bench/e2e/run.py
// aggregates processes into metrics.
//
// --reference re-runs the schedule once, untimed, on the parallel path
// (3 serving workers, or 4 fleet threads) and requires the simulated
// report to be identical. --capacity (serve_mix20) walks the fixed rate
// ladder. --trace-out records host spans around every call into a layer
// and attaches the obs metrics registry and trace recorder.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accel/compiler.hpp"
#include "accel/service_cycle_cache.hpp"
#include "cluster/cluster.hpp"
#include "common.hpp"
#include "model/flops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/energy.hpp"
#include "power/power_model.hpp"
#include "runtime/baseline.hpp"
#include "runtime/measurement.hpp"
#include "serve/options.hpp"
#include "serve/session.hpp"
#include "host_clock.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace mann::e2e {
namespace {

constexpr double kClockHz = 100.0e6;

/// Named numbers, emitted as one JSON object.
using Fields = std::vector<std::pair<std::string, double>>;

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string json_object(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quoted(fields[i].first) + ": " +
           number(fields[i].second);
  }
  return out + "}";
}

double field(const Fields& fields, const std::string& name) {
  for (const auto& [key, value] : fields) {
    if (key == name) {
      return value;
    }
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// FNV-1a over every deterministic result of a rep (the cache-key mixer
/// the accelerator already uses).
class Digest {
 public:
  void mix(std::uint64_t word) noexcept { h_ = accel::fnv1a_mix(h_, word); }
  void mix(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = accel::kFnv1aOffset;
};

/// What one rep reports (the driver's JSON, per rep).
struct RepResult {
  HostTime build;  ///< fresh Server/Cluster construction
  HostTime time;   ///< the timed rep
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::string digest;
  Fields sim;     ///< simulated end-to-end numbers
  Fields layers;  ///< per-layer counts and ratios
  std::vector<std::string> errors;
};

void check(RepResult& r, bool ok, const std::string& what) {
  if (!ok) {
    r.errors.push_back(what);
  }
}

/// Even tasks interactive (3 ms), odd tasks batch (30 ms) at 100 MHz.
serve::SloConfig mixed_slos(std::size_t tasks) {
  serve::SloConfig slo;
  slo.per_task.resize(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    slo.per_task[t] = t % 2 == 0 ? 300'000 : 3'000'000;
  }
  return slo;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::size_t n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

/// The trained suite, loaded from the cache only: training is the
/// runner's untimed --train-suite step and never lands in set-up time.
std::vector<runtime::TaskArtifacts> load_suite(const std::string& dir,
                                               std::size_t tasks) {
  const runtime::PrepareConfig cfg = bench::suite_config();
  if (!runtime::suite_cache_complete(cfg, dir, tasks)) {
    throw std::runtime_error("no trained suite under " + dir +
                             " (run mann_e2e --train-suite first)");
  }
  return runtime::prepare_suite_cached(cfg, dir, tasks);
}

// ------------------------------------------------------------ paper_table1

/// The paper's protocol: every task's test split through the device at
/// 25/50/75/100 MHz, plain and with ITH — runtime::measure_fpga's steps
/// (compile, Accelerator::run, power estimate) called one layer at a
/// time so each can be timed. The seed orders each task's stories.
class Table1Bench {
 public:
  static constexpr std::array<double, 4> kMhz = {25.0, 50.0, 75.0, 100.0};

  Table1Bench(const std::vector<runtime::TaskArtifacts>& suite,
              std::uint64_t seed, Tracer& tracer, HostClock& clock,
              double& compile_s) {
    const HostTime start = clock.lap();
    for (const runtime::TaskArtifacts& art : suite) {
      Scope span(tracer, "accel.compile");
      programs_[0].push_back(accel::compile_model(art.model));
      programs_[1].push_back(accel::compile_model(art.model, &art.ith));
    }
    compile_s = (clock.lap() - start).scaled_s;
    for (std::size_t t = 0; t < suite.size(); ++t) {
      const std::vector<data::EncodedStory>& test = suite[t].dataset.test;
      std::vector<data::EncodedStory> ordered;
      ordered.reserve(test.size());
      for (const std::uint32_t i : story_order(test.size(), seed, t)) {
        ordered.push_back(test[i]);
      }
      std::uint64_t flops = 0;
      for (const data::EncodedStory& s : ordered) {
        flops += model::count_flops(s, suite[t].model.config()).total();
      }
      stories_.push_back(std::move(ordered));
      flops_.push_back(flops);
    }
    Scope span(tracer, "runtime.gpu_baseline");
    gpu_ = bench::measure_suite_baseline(suite, runtime::gpu_baseline())
               .energy;
  }

  RepResult rep(Tracer& tracer, HostClock& clock) const {
    RepResult r;
    Digest digest;
    const power::FpgaPowerModel power_model;
    // Suite totals per (ith, clock): seconds, joules and flops at one
    // repetition, plus the 100 MHz detail the metrics are read from.
    struct Totals {
      double seconds = 0.0;
      double joules = 0.0;
      std::uint64_t flops = 0;
      std::size_t stories = 0;
      std::size_t correct = 0;
      std::uint64_t probes = 0;
      std::size_t early_exits = 0;
      sim::Cycle cycles = 0;
      sim::Cycle link_active = 0;
      std::uint64_t ops = 0;
      std::vector<sim::ModuleStats> modules;
      std::vector<std::string> module_names;
      double static_j = 0.0, dynamic_j = 0.0, link_j = 0.0;
      std::vector<double> latency_ms;
    };
    std::array<std::array<Totals, 4>, 2> totals{};
    sim::Cycle all_cycles = 0;
    std::size_t run_calls = 0;
    bool clocks_agree = true;

    const HostTime start = clock.lap();
    std::optional<Scope> timed(std::in_place, tracer, "rep");
    for (std::size_t ith = 0; ith < 2; ++ith) {
      std::vector<std::vector<std::int32_t>> first_predictions(
          stories_.size());
      for (std::size_t c = 0; c < kMhz.size(); ++c) {
        accel::AccelConfig cfg;
        cfg.clock_hz = kMhz[c] * 1.0e6;
        cfg.ith_enabled = ith == 1;
        Totals& tot = totals[ith][c];
        for (std::size_t t = 0; t < stories_.size(); ++t) {
          std::optional<accel::Accelerator> device;
          {
            Scope span(tracer, "accel.build");
            device.emplace(cfg, programs_[ith][t]);
          }
          accel::RunResult run;
          {
            Scope span(tracer, "accel.run");
            run = device->run(stories_[t]);
          }
          power::FpgaPowerReport power;
          {
            Scope span(tracer, "power.estimate");
            power = power_model.estimate(run, cfg.clock_hz);
          }
          ++run_calls;
          clock.tick();
          all_cycles += run.total_cycles;
          tot.seconds += run.seconds;
          tot.joules += power.total_joules;
          tot.static_j += power.static_joules + power.clock_joules;
          tot.dynamic_j += power.dynamic_joules;
          tot.link_j += power.link_joules;
          tot.flops += flops_[t];
          tot.cycles += run.total_cycles;
          tot.link_active += run.link_active_cycles;
          tot.ops += run.total_ops.total();
          if (tot.modules.empty()) {
            tot.modules.resize(run.modules.size());
            for (const accel::ModuleReport& m : run.modules) {
              tot.module_names.push_back(m.name);
            }
          }
          for (std::size_t m = 0; m < run.modules.size(); ++m) {
            tot.modules[m] += run.modules[m].stats;
          }
          std::vector<std::int32_t> predictions;
          predictions.reserve(run.stories.size());
          for (std::size_t i = 0; i < run.stories.size(); ++i) {
            const accel::StoryOutcome& s = run.stories[i];
            predictions.push_back(s.prediction);
            tot.correct += s.prediction == stories_[t][i].answer ? 1 : 0;
            tot.probes += s.output_probes;
            tot.early_exits += s.early_exit ? 1 : 0;
            // Every story of the task's batch is queued at cycle 0.
            tot.latency_ms.push_back(static_cast<double>(s.finish_cycle) /
                                     cfg.clock_hz * 1e3);
            digest.mix(std::uint64_t{static_cast<std::uint32_t>(
                s.prediction)});
            digest.mix(s.output_probes);
            digest.mix(s.finish_cycle);
          }
          tot.stories += run.stories.size();
          digest.mix(run.total_cycles);
          digest.mix(run.link_active_cycles);
          digest.mix(power.total_joules);
          for (const accel::ModuleReport& m : run.modules) {
            digest.mix(m.stats.busy_cycles);
            digest.mix(m.stats.stall_cycles);
          }
          if (c == 0) {
            first_predictions[t] = std::move(predictions);
          } else {
            clocks_agree = clocks_agree && predictions == first_predictions[t];
          }
        }
      }
    }
    timed.reset();
    r.time = clock.lap() - start;

    check(r, clocks_agree,
          "paper_table1: a story's prediction differs across clocks");
    const Totals& plain = totals[0][3];
    const Totals& ith = totals[1][3];
    for (const auto& by_clock : totals) {
      for (const Totals& tot : by_clock) {
        r.offered += tot.stories;
      }
    }
    r.completed = r.offered;
    r.digest = digest.hex();

    // The paper's convention: FLOPS/kJ over the GPU row, both at the
    // 100-repetition protocol (bench/table1_measurements' numbers).
    const auto energy = [](const Totals& tot) {
      const auto reps = static_cast<double>(bench::kRepetitions);
      power::EnergyReport e;
      e.seconds = tot.seconds * reps;
      e.watts = ratio(tot.joules, tot.seconds);
      e.flops = tot.flops * bench::kRepetitions;
      return e;
    };
    const auto stories = static_cast<double>(plain.stories);
    r.sim = {
        {"sim_sps", ratio(stories, plain.seconds)},
        {"sim_p50_ms", percentile(plain.latency_ms, 0.50)},
        {"sim_p99_ms", percentile(plain.latency_ms, 0.99)},
        {"sim_latency_samples", stories},
        {"sim_mj_per_inf", ratio(plain.joules, stories) * 1e3},
        {"deadline_hit_rate", 1.0},
        {"served_frac", 1.0},
        {"accuracy", ratio(static_cast<double>(plain.correct), stories)},
        {"efficiency_vs_gpu",
         power::normalize(energy(plain), gpu_).energy_efficiency},
        {"efficiency_vs_gpu_ith",
         power::normalize(energy(ith), gpu_).energy_efficiency},
        {"ith_time_saving", ratio(plain.seconds - ith.seconds, plain.seconds)},
    };
    for (std::size_t c = 0; c < kMhz.size(); ++c) {
      r.sim.emplace_back(
          "ith_time_saving_" + std::to_string(static_cast<int>(kMhz[c])) +
              "mhz",
          ratio(totals[0][c].seconds - totals[1][c].seconds,
                totals[0][c].seconds));
    }

    const auto cycles = static_cast<double>(plain.cycles);
    r.layers = {
        {"accel.run_calls", static_cast<double>(run_calls)},
        {"accel.sim_cycles", static_cast<double>(all_cycles)},
        {"accel.link_active_frac",
         ratio(static_cast<double>(plain.link_active), cycles)},
        {"accel.ops_per_story", ratio(static_cast<double>(plain.ops), stories)},
        {"core.ith.probes_per_story",
         ratio(static_cast<double>(ith.probes), static_cast<double>(ith.stories))},
        {"core.ith.early_exit_rate",
         ratio(static_cast<double>(ith.early_exits),
               static_cast<double>(ith.stories))},
        {"power.static_frac", ratio(plain.static_j, plain.joules)},
        {"power.dynamic_frac", ratio(plain.dynamic_j, plain.joules)},
        {"power.link_frac", ratio(plain.link_j, plain.joules)},
    };
    for (std::size_t m = 0; m < plain.modules.size(); ++m) {
      std::string name = plain.module_names[m];
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char ch) { return std::tolower(ch); });
      r.layers.emplace_back(
          "accel." + name + ".busy_frac",
          ratio(static_cast<double>(plain.modules[m].busy_cycles), cycles));
      r.layers.emplace_back(
          "accel." + name + ".stall_frac",
          ratio(static_cast<double>(plain.modules[m].stall_cycles), cycles));
    }
    return r;
  }

 private:
  std::array<std::vector<accel::DeviceProgram>, 2> programs_;  ///< plain, ITH
  std::vector<std::vector<data::EncodedStory>> stories_;  ///< seeded order
  std::vector<std::uint64_t> flops_;
  power::EnergyReport gpu_;
};

// ------------------------------------------------- serving and cluster

/// One resolved request as the checks and metrics see it, from either a
/// session's or a cluster's completion stream.
struct Resolved {
  std::uint64_t instance = 0;
  const serve::Completion* completion = nullptr;
};

/// End-to-end numbers and checks shared by the serve and cluster reps:
/// every submitted (instance, id) resolves exactly once; latency,
/// deadline and accuracy come from the completion stream, where a shed
/// or router-shed request counts as a deadline miss.
void score_stream(RepResult& r,
                  std::vector<std::pair<std::uint64_t, std::uint64_t>> sent,
                  const std::vector<Resolved>& stream,
                  std::size_t router_shed, Digest& digest) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  got.reserve(stream.size());
  std::vector<double> latency_ms;
  std::size_t correct = 0;
  std::size_t with_deadline = router_shed;
  std::size_t hits = 0;
  for (const Resolved& res : stream) {
    const serve::Completion& c = *res.completion;
    const serve::InferenceResponse& resp = c.response;
    got.emplace_back(res.instance, resp.id);
    digest.mix(res.instance);
    digest.mix(resp.id);
    digest.mix(std::uint64_t{static_cast<std::uint8_t>(c.outcome)});
    digest.mix(c.cycle);
    digest.mix(resp.enqueue_cycle);
    const bool has_deadline = resp.deadline_cycle != sim::kNever;
    with_deadline += has_deadline ? 1 : 0;
    if (serve::outcome_is_shed(c.outcome)) {
      continue;
    }
    ++r.completed;
    hits += has_deadline && c.outcome == serve::RequestOutcome::kOk ? 1 : 0;
    correct += resp.prediction == resp.answer ? 1 : 0;
    latency_ms.push_back(static_cast<double>(resp.latency_cycles()) /
                         kClockHz * 1e3);
    digest.mix(std::uint64_t{static_cast<std::uint32_t>(resp.prediction)});
    digest.mix(resp.dispatch_cycle);
    digest.mix(resp.device);
    digest.mix(resp.batch_size);
  }
  std::sort(sent.begin(), sent.end());
  std::sort(got.begin(), got.end());
  check(r, sent == got && std::adjacent_find(got.begin(), got.end()) ==
                              got.end(),
        "a submitted request did not resolve exactly once");

  const auto completed = static_cast<double>(r.completed);
  r.sim = {
      {"sim_p50_ms", percentile(latency_ms, 0.50)},
      {"sim_p99_ms", percentile(latency_ms, 0.99)},
      {"sim_latency_samples", completed},
      {"deadline_hit_rate",
       with_deadline == 0 ? 1.0
                          : static_cast<double>(hits) /
                                static_cast<double>(with_deadline)},
      {"served_frac", ratio(completed, static_cast<double>(r.offered))},
      {"accuracy", ratio(static_cast<double>(correct), completed)},
  };
}

/// Deadline hit rate of the tenants that carry no quota (every tenant
/// when none does) — the conforming traffic admission must protect. A
/// shed request counts as a miss.
double conforming_hit_rate(const std::vector<Resolved>& stream,
                           const std::vector<serve::TenantConfig>& tenants) {
  std::size_t total = 0;
  std::size_t hits = 0;
  for (const Resolved& res : stream) {
    const serve::Completion& c = *res.completion;
    const std::size_t tenant = c.response.tenant;
    if ((tenant < tenants.size() &&
         tenants[tenant].quota_interarrival_cycles > 0.0) ||
        c.response.deadline_cycle == sim::kNever) {
      continue;
    }
    ++total;
    hits += c.outcome == serve::RequestOutcome::kOk ? 1 : 0;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

/// Per-layer numbers of one instance's (or a server's) report.
void serve_layers(Fields& layers,
                  const std::vector<const serve::ServingReport*>& reports,
                  const serve::ServingReport& cache_view,
                  const serve::ServingEnergy& energy, double queue_wait_p99_s) {
  double batches = 0, stories = 0, timeouts = 0, uploads = 0, evictions = 0,
         stolen = 0, util = 0, speculated = 0, useful = 0, wasted = 0;
  serve::ShedCounters sheds;
  for (const serve::ServingReport* rep : reports) {
    batches += static_cast<double>(rep->batching.batches_out);
    stories += static_cast<double>(rep->batching.stories_out);
    timeouts += static_cast<double>(rep->batching.flush_timeout);
    uploads += static_cast<double>(rep->model_uploads);
    evictions += static_cast<double>(rep->model_evictions);
    stolen += static_cast<double>(rep->stolen_batches);
    util += rep->mean_device_utilization;
    speculated += static_cast<double>(rep->speculation.speculated);
    useful += static_cast<double>(rep->speculation.useful);
    wasted += static_cast<double>(rep->speculation.wasted);
    sheds += rep->shed;
  }
  const accel::ServiceCycleCacheStats& cache = cache_view.cycle_cache;
  const auto lookups =
      static_cast<double>(cache.hits + cache.waits + cache.misses);
  const auto shed = [&](serve::ShedReason reason) {
    return static_cast<double>(sheds.count(reason));
  };
  const Fields more = {
      {"serve.queue_wait_p99_ms", queue_wait_p99_s * 1e3},
      {"serve.batch_mean", ratio(stories, batches)},
      {"serve.flush_timeout_frac", ratio(timeouts, batches)},
      {"serve.model_uploads", uploads},
      {"serve.model_evictions", evictions},
      {"serve.stolen_batches", stolen},
      {"serve.device_util_mean", ratio(util, static_cast<double>(reports.size()))},
      {"serve.shed.quota", shed(serve::ShedReason::kQuota)},
      {"serve.shed.doomed", shed(serve::ShedReason::kDoomed)},
      {"serve.shed.overload", shed(serve::ShedReason::kOverload)},
      {"serve.shed.queue_full", shed(serve::ShedReason::kQueueFull)},
      {"serve.spec.useful_frac", ratio(useful, speculated)},
      {"serve.spec.wasted", wasted},
      {"cache.lookups", lookups},
      {"cache.hit_frac", ratio(static_cast<double>(cache.hits), lookups)},
      {"cache.evictions", static_cast<double>(cache.evictions)},
      {"power.static_frac", ratio(energy.static_joules, energy.total_joules)},
      {"power.dynamic_frac", ratio(energy.dynamic_joules, energy.total_joules)},
      {"power.link_frac", ratio(energy.link_joules, energy.total_joules)},
  };
  layers.insert(layers.end(), more.begin(), more.end());
}

void digest_report(Digest& d, const serve::ServingReport& rep) {
  d.mix(rep.offered);
  d.mix(rep.completed);
  d.mix(rep.rejected);
  d.mix(rep.makespan_cycles);
  d.mix(rep.latency.p99_cycles);
  d.mix(rep.queue_wait.p99_cycles);
  d.mix(rep.deadline_missed);
  d.mix(rep.mean_batch_size);
  d.mix(rep.mean_device_utilization);
  d.mix(rep.model_uploads);
  d.mix(rep.model_evictions);
  d.mix(rep.stolen_batches);
  d.mix(rep.energy.total_joules);
  d.mix(rep.fairness_index);
  for (const std::uint64_t n : rep.shed.by_reason) {
    d.mix(n);
  }
}

/// Host-side observability of a traced rep: a fresh metrics registry and
/// trace recorder attached to the Server/Cluster. Their counters are
/// dumped beside the spans.
struct ObsSinks {
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
};

std::string obs_dump(const ObsSinks& sinks) {
  Fields values;
  for (const obs::MetricSample& s : sinks.registry.snapshot()) {
    switch (s.kind) {
      case obs::MetricSample::Kind::kCounter:
        values.emplace_back(s.name, static_cast<double>(s.value));
        break;
      case obs::MetricSample::Kind::kGauge:
        values.emplace_back(s.name, static_cast<double>(s.gauge));
        break;
      case obs::MetricSample::Kind::kHistogram:
        values.emplace_back(s.name + ".count",
                            static_cast<double>(s.histogram.count));
        values.emplace_back(s.name + ".mean", s.histogram.mean());
        break;
    }
  }
  values.emplace_back("obs.trace_events",
                      static_cast<double>(sinks.recorder.event_count()));
  return json_object(values);
}

// The timed reps run on the host-sequential path: 0 serving workers and 1
// fleet thread. Its host work is a function of the input alone. With
// workers, the share of batches simulated ahead of dispatch depends on
// thread timing, so rep time turns bimodal and follows whatever else the
// host runs. The parallel path still runs once per workload, untimed, and
// must reproduce the sequential run's simulated results exactly.
constexpr std::size_t kParallelWorkers = 3;
constexpr std::size_t kParallelFleetThreads = 4;

struct ServeParams {
  std::size_t tasks = 20;
  std::size_t devices = 4;
  std::size_t dedicated = 0;
  serve::SchedulerPolicy policy = serve::SchedulerPolicy::kEdf;
  std::vector<serve::TenantConfig> tenants;
  serve::AdmissionConfig admission;
};

serve::ServerConfig server_config(const ServeParams& p) {
  accel::AccelConfig accel;
  accel.clock_hz = kClockHz;
  serve::SchedulerConfig scheduler;
  scheduler.devices = p.devices;
  scheduler.dedicated_devices = p.dedicated;
  return serve::ServingOptions()
      .accel(accel)
      .admission(p.admission)
      .scheduler(scheduler)
      .tenants(p.tenants)
      .slo(mixed_slos(p.tasks))
      .policy(p.policy)
      .build();
}

std::vector<serve::ServedModel> served_models(
    const std::vector<runtime::TaskArtifacts>& suite, Tracer& tracer) {
  std::vector<serve::ServedModel> models;
  for (const runtime::TaskArtifacts& art : suite) {
    Scope span(tracer, "accel.compile");
    serve::ServedModel model;
    model.program = accel::compile_model(art.model);
    model.stories = art.dataset.test;
    models.push_back(std::move(model));
  }
  return models;
}

/// A session and the cycle cache it dispatches through, both fresh per
/// rep. The cache is declared first so that it outlives the session.
struct Served {
  std::unique_ptr<accel::ServiceCycleCache> cache;
  std::unique_ptr<serve::ServerSession> session;
};

/// The serve_* workloads: one ServerSession per rep, fed the schedule in
/// lockstep (submit, step_until the arrival, poll).
class ServeBench {
 public:
  ServeBench(ServeParams params, const std::vector<serve::ServedModel>& models,
             std::vector<Arrival> schedule)
      : params_(std::move(params)),
        config_(server_config(params_)),
        models_(models),
        schedule_(std::move(schedule)) {}

  /// Builds the session a rep will serve on (set-up work, timed apart).
  /// The sequential session gets a cache set up as the scheduler sets up
  /// its own when it has workers; the parallel one lets the scheduler own
  /// its cache and speculate into it.
  [[nodiscard]] Served build(Tracer& tracer, ObsSinks* sinks,
                             bool parallel = false) const {
    Scope span(tracer, "serve.build");
    serve::ServerConfig cfg = config_;
    if (sinks != nullptr) {
      cfg.metrics = &sinks->registry;
      cfg.trace = &sinks->recorder;
    }
    Served served;
    if (parallel) {
      cfg.scheduler.workers = kParallelWorkers;
    } else {
      served.cache = std::make_unique<accel::ServiceCycleCache>(
          cfg.scheduler.cache_capacity, cfg.metrics);
      served.cache->set_eviction_policy(serve::EvictionPolicyKind::kCostAware);
      cfg.scheduler.cycle_cache = served.cache.get();
    }
    served.session =
        std::make_unique<serve::ServerSession>(std::move(cfg), models_);
    return served;
  }

  RepResult rep(serve::ServerSession& session, Tracer& tracer,
                HostClock& clock, const std::vector<Arrival>& schedule) {
    RepResult r;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sent;
    sent.reserve(schedule.size());
    std::vector<serve::Completion> stream;
    stream.reserve(schedule.size());
    const auto poll = [&] {
      Scope span(tracer, "serve.poll");
      std::vector<serve::Completion> window = session.poll_completions();
      stream.insert(stream.end(), window.begin(), window.end());
    };

    const HostTime start = clock.lap();
    std::optional<Scope> timed(std::in_place, tracer, "rep");
    for (const Arrival& a : schedule) {
      {
        Scope span(tracer, "serve.submit");
        sent.emplace_back(0, session.submit({a.task, a.tenant, a.cycle, 0}));
      }
      {
        Scope span(tracer, "serve.step");
        (void)session.step_until(session.last_submitted_arrival());
      }
      poll();
      clock.tick();
    }
    serve::ServingReport report;
    {
      Scope span(tracer, "serve.finalize");
      report = session.finalize();
    }
    poll();
    timed.reset();
    r.time = clock.lap() - start;

    r.offered = schedule.size();
    std::vector<Resolved> resolved;
    resolved.reserve(stream.size());
    for (const serve::Completion& c : stream) {
      resolved.push_back({0, &c});
    }
    Digest digest;
    score_stream(r, std::move(sent), resolved, 0, digest);
    digest_report(digest, report);
    r.digest = digest.hex();
    r.sim.emplace_back("sim_sps", report.throughput_stories_per_second);
    r.sim.emplace_back("sim_mj_per_inf",
                       report.energy.per_inference_joules * 1e3);
    r.layers.emplace_back("serve.conforming_hit_rate",
                          conforming_hit_rate(resolved, params_.tenants));
    serve_layers(r.layers, {&report}, report, report.energy,
                 report.queue_wait.p99_seconds);
    report_ = std::move(report);
    return r;
  }

  RepResult rep(serve::ServerSession& session, Tracer& tracer,
                HostClock& clock) {
    return rep(session, tracer, clock, schedule_);
  }

  /// The last rep's report (the reference run compares against it).
  [[nodiscard]] const serve::ServingReport& last_report() const {
    return report_;
  }

 private:
  ServeParams params_;
  serve::ServerConfig config_;
  const std::vector<serve::ServedModel>& models_;
  std::vector<Arrival> schedule_;
  serve::ServingReport report_;
};

/// cluster_diurnal_10x: a 4-instance fleet behind a power-of-two router,
/// stepped in lockstep over a fleet-shared 8-segment cycle cache.
class ClusterBench {
 public:
  ClusterBench(const std::vector<serve::ServedModel>& models,
               std::vector<Arrival> schedule)
      : models_(models), schedule_(std::move(schedule)) {
    params_.devices = 8;
    params_.tenants.assign(3, serve::TenantConfig{});
    config_.instances = 4;
    config_.server = server_config(params_);
    config_.router.kind = cluster::RouterPolicyKind::kPowerOfTwo;
    config_.router.spill_queue_threshold = 256;
    config_.fleet_threads = 1;
    config_.cache_segments = 8;
  }

  [[nodiscard]] std::unique_ptr<cluster::Cluster> build(
      Tracer& tracer, ObsSinks* sinks, bool parallel = false) const {
    cluster::ClusterConfig cfg = config_;
    if (sinks != nullptr) {
      cfg.server.metrics = &sinks->registry;
      cfg.server.trace = &sinks->recorder;
    }
    if (parallel) {
      cfg.fleet_threads = kParallelFleetThreads;
    }
    Scope span(tracer, "cluster.build");
    return std::make_unique<cluster::Cluster>(std::move(cfg), models_);
  }

  RepResult rep(cluster::Cluster& fleet, Tracer& tracer, HostClock& clock) {
    RepResult r;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sent;
    sent.reserve(schedule_.size());
    std::vector<cluster::ClusterCompletion> stream;
    stream.reserve(schedule_.size());
    std::size_t router_shed = 0;
    std::size_t steps = 0;
    const auto step = [&](sim::Cycle limit) {
      Scope span(tracer, "cluster.step");
      ++steps;
      (void)fleet.step_until(limit);
    };
    const auto poll = [&] {
      Scope span(tracer, "cluster.poll");
      std::vector<cluster::ClusterCompletion> window = fleet.poll_completions();
      stream.insert(stream.end(), window.begin(), window.end());
    };

    const HostTime start = clock.lap();
    std::optional<Scope> timed(std::in_place, tracer, "rep");
    for (const Arrival& a : schedule_) {
      {
        Scope span(tracer, "cluster.submit");
        const cluster::Cluster::Submission sub =
            fleet.submit({a.task, a.tenant, a.cycle, 0});
        if (sub.instance) {
          sent.emplace_back(*sub.instance, sub.id);
        } else {
          ++router_shed;
        }
      }
      step(fleet.last_submitted_arrival());
      poll();
      clock.tick();
    }
    // Cluster::finalize() folds still-pending completions into its
    // percentiles without returning them, so the tail is stepped to
    // quiescence and polled first (as mann_served does).
    fleet.drain();
    step(sim::kNever);
    poll();
    cluster::ClusterReport report;
    {
      Scope span(tracer, "cluster.finalize");
      report = fleet.finalize();
    }
    timed.reset();
    r.time = clock.lap() - start;

    r.offered = schedule_.size();
    std::vector<Resolved> resolved;
    resolved.reserve(stream.size());
    for (const cluster::ClusterCompletion& c : stream) {
      resolved.push_back({c.instance, &c.completion});
    }
    Digest digest;
    score_stream(r, std::move(sent), resolved, router_shed, digest);
    check(r, router_shed == report.router_shed,
          "router sheds disagree with the cluster report");
    digest.mix(report.offered);
    digest.mix(report.completed);
    digest.mix(report.router_shed);
    digest.mix(report.makespan_cycles);
    digest.mix(report.warm_dispatch_rate);
    digest.mix(report.instance_fairness);
    digest.mix(report.energy.total_joules);
    for (const cluster::InstanceReport& inst : report.instance_reports) {
      digest.mix(inst.routed);
      digest.mix(inst.active_cycles);
      digest_report(digest, inst.report);
    }
    r.digest = digest.hex();
    r.sim.emplace_back("sim_sps", report.throughput_stories_per_second);
    r.sim.emplace_back("sim_mj_per_inf",
                       report.energy.per_inference_joules * 1e3);

    std::vector<const serve::ServingReport*> instances;
    for (const cluster::InstanceReport& inst : report.instance_reports) {
      instances.push_back(&inst.report);
    }
    r.layers = {
        {"cluster.steps", static_cast<double>(steps)},
        {"cluster.warm_dispatch_rate", report.warm_dispatch_rate},
        {"cluster.instance_fairness", report.instance_fairness},
        {"cluster.router_shed", static_cast<double>(report.router_shed)},
        {"cluster.mean_active_instances", report.mean_active_instances},
        {"serve.conforming_hit_rate",
         conforming_hit_rate(resolved, params_.tenants)},
    };
    // The fleet shares one cycle cache, so every instance reports the
    // same (fleet-wide) cache totals: read them once.
    serve_layers(r.layers, instances, report.instance_reports.front().report,
                 report.energy, report.queue_wait.p99_seconds);
    report_ = std::move(report);
    return r;
  }

  [[nodiscard]] const cluster::ClusterReport& last_report() const {
    return report_;
  }

 private:
  ServeParams params_;
  cluster::ClusterConfig config_;
  const std::vector<serve::ServedModel>& models_;
  std::vector<Arrival> schedule_;
  cluster::ClusterReport report_;
};

ServeParams serve_params(const std::string& workload) {
  ServeParams p;
  if (workload == "serve_mix20") {
    p.dedicated = 4;
  } else if (workload == "serve_hot") {
    p.tasks = 2;
  } else if (workload == "serve_overload_tenants") {
    // Two conforming tenants (interactive tier 0, batch tier 1) beside a
    // flood tenant entitled by quota to a fraction of what it sends.
    p.dedicated = 4;
    p.policy = serve::SchedulerPolicy::kWfq;
    p.tenants.resize(3);
    p.tenants[0].weight = 4.0;
    p.tenants[1].tier = 1;
    p.tenants[1].weight = 2.0;
    p.tenants[2].tier = 2;
    p.tenants[2].traffic_share = 4.0;
    p.tenants[2].quota_interarrival_cycles = 8'000.0;
    p.tenants[2].quota_burst = 16.0;
    p.admission.shed_doomed = true;
    p.admission.overload_pending_requests = 1'024;
    p.admission.overload_watermark = 0.70;
  }
  return p;
}

/// serve_mix20's capacity: the highest rate of a fixed ladder at which
/// sim p99 stays within 5 ms and the backlog clears within 5 ms of the
/// last arrival (nothing shed).
std::string capacity_ladder(ServeBench& bench, const ArrivalSpec& base,
                            std::uint64_t seed, Tracer& tracer,
                            HostClock& clock) {
  constexpr double kLimitMs = 5.0;
  double capacity = 0.0;
  std::string rungs;
  for (const double interarrival : {4000.0, 2000.0, 1000.0, 700.0, 500.0}) {
    ArrivalSpec spec = base;
    spec.mean_interarrival_cycles = interarrival;
    const std::vector<Arrival> schedule = make_schedule(spec, seed);
    const Served served = bench.build(tracer, nullptr);
    const RepResult r = bench.rep(*served.session, tracer, clock, schedule);
    const double p99_ms = field(r.sim, "sim_p99_ms");
    const double tail_ms =
        static_cast<double>(bench.last_report().makespan_cycles -
                            std::min(bench.last_report().makespan_cycles,
                                     schedule.back().cycle)) /
        kClockHz * 1e3;
    const bool pass = r.errors.empty() && r.completed == r.offered &&
                      p99_ms <= kLimitMs && tail_ms <= kLimitMs;
    if (pass) {
      capacity = std::max(capacity, kClockHz / interarrival);
    }
    rungs += std::string(rungs.empty() ? "" : ", ") +
             json_object({{"interarrival_cycles", interarrival},
                          {"rate_sps", kClockHz / interarrival},
                          {"sim_p99_ms", p99_ms},
                          {"tail_ms", tail_ms},
                          {"pass", pass ? 1.0 : 0.0}});
  }
  return "{\"sim_capacity_sps\": " + number(capacity) + ", \"rungs\": [" +
         rungs + "]}";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2019;
  std::string suite_dir = "build-e2e/suite";
  std::size_t reps = 2;
  bool reference = false;
  bool capacity = false;
  bool train_suite = false;
  bool selftest = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--suite-dir") {
      o.suite_dir = value();
    } else if (arg == "--reps") {
      o.reps = std::max<std::size_t>(1, std::stoull(value()));
    } else if (arg == "--reference") {
      o.reference = true;
    } else if (arg == "--capacity") {
      o.capacity = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--train-suite") {
      o.train_suite = true;
    } else if (arg == "--selftest") {
      o.selftest = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  return o;
}

int run(const Options& opt) {
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  Tracer tracer(!opt.trace_out.empty());
  std::unique_ptr<ObsSinks> sinks;
  const auto fresh_sinks = [&]() -> ObsSinks* {
    if (!tracer.enabled()) {
      return nullptr;
    }
    sinks = std::make_unique<ObsSinks>();
    return sinks.get();
  };

  // ---- set-up: from here to ready
  HostClock clock(tracer);
  const std::size_t tasks =
      spec->has_schedule ? spec->arrivals.tasks : std::size_t{0};
  Fields setup_layers;
  std::vector<runtime::TaskArtifacts> suite;
  {
    Scope span(tracer, "runtime.suite_load");
    suite = load_suite(opt.suite_dir, tasks);
    setup_layers.emplace_back("runtime.suite_load_s", clock.lap().scaled_s);
  }
  const std::vector<Arrival> schedule =
      spec->has_schedule ? make_schedule(spec->arrivals, opt.seed)
                         : std::vector<Arrival>{};

  std::unique_ptr<Table1Bench> table1;
  std::vector<serve::ServedModel> models;
  std::unique_ptr<ServeBench> serve_bench;
  std::unique_ptr<ClusterBench> cluster_bench;
  Served served;
  std::unique_ptr<cluster::Cluster> fleet;
  std::size_t threads = 0;

  // Builds the Server/Cluster the next rep runs on; returns its time.
  const auto build_next = [&]() {
    const HostTime start = clock.lap();
    if (serve_bench) {
      served = serve_bench->build(tracer, fresh_sinks());
    } else if (cluster_bench) {
      fleet = cluster_bench->build(tracer, fresh_sinks());
    }
    const HostTime build = clock.lap() - start;
    threads = std::max(threads, thread_count());
    return build;
  };

  HostTime first_build;
  if (!spec->has_schedule) {
    double compile_s = 0.0;
    table1 = std::make_unique<Table1Bench>(suite, opt.seed, tracer, clock,
                                           compile_s);
    setup_layers.emplace_back("accel.compile_s", compile_s);
  } else {
    const HostTime start = clock.lap();
    models = served_models(suite, tracer);
    setup_layers.emplace_back("accel.compile_s",
                              (clock.lap() - start).scaled_s);
    if (opt.workload == "cluster_diurnal_10x") {
      cluster_bench = std::make_unique<ClusterBench>(models, schedule);
    } else {
      serve_bench = std::make_unique<ServeBench>(serve_params(opt.workload),
                                                 models, schedule);
    }
    first_build = build_next();
    setup_layers.emplace_back(
        cluster_bench ? "cluster.build_s" : "serve.build_s",
        first_build.scaled_s);
  }
  const HostTime setup = clock.lap();
  threads = std::max(threads, thread_count());

  // ---- reps
  std::vector<RepResult> reps;
  std::vector<std::string> errors;
  while (reps.size() < opt.reps) {
    tracer.set_rep(static_cast<std::int64_t>(reps.size()));
    RepResult r;
    HostTime build = first_build;
    try {
      if (!reps.empty()) {
        build = build_next();
      }
      if (table1) {
        r = table1->rep(tracer, clock);
      } else if (serve_bench) {
        r = serve_bench->rep(*served.session, tracer, clock);
      } else {
        r = cluster_bench->rep(*fleet, tracer, clock);
      }
    } catch (const std::exception& e) {
      r.errors.push_back(std::string("rep threw: ") + e.what());
      r.offered = schedule.size();
    }
    r.build = build;
    // The two serving workloads sit on opposite sides of the cycle cache:
    // serve_hot must be answered from it, serve_mix20 must mostly miss.
    const double hit = field(r.layers, "cache.hit_frac");
    check(r, opt.workload != "serve_hot" || hit >= 0.9,
          "cache.hit_frac below 0.9 on serve_hot");
    check(r, opt.workload != "serve_mix20" || hit <= 0.6,
          "cache.hit_frac above 0.6 on serve_mix20");
    if (!reps.empty() && !r.digest.empty() &&
        r.digest != reps.front().digest) {
      r.errors.push_back("sim_digest differs from rep 0");
    }
    served.session.reset();  // before the cache it dispatches through
    served.cache.reset();
    fleet.reset();
    for (const std::string& e : r.errors) {
      errors.push_back("rep " + std::to_string(reps.size()) + ": " + e);
    }
    reps.push_back(std::move(r));
  }
  tracer.set_rep(-1);
  // Read before the untimed extras below, which hold a second session.
  const double rss_mb = peak_rss_mb();
  const std::string obs_metrics = sinks ? obs_dump(*sinks) : "{}";
  sinks.reset();

  // ---- untimed extras: the parallel reference and the capacity ladder
  std::string reference = "skipped";
  Fields reference_layers;
  if (opt.reference && errors.empty()) {
    Tracer off(false);
    if (serve_bench) {
      const serve::ServingReport measured_report = serve_bench->last_report();
      const std::string measured_digest = reps.back().digest;
      const Served ref = serve_bench->build(off, nullptr, true);
      const RepResult r = serve_bench->rep(*ref.session, off, clock);
      const bool same = r.digest == measured_digest &&
                        serve::simulated_reports_identical(
                            serve_bench->last_report(), measured_report);
      reference = same ? "identical" : "DIVERGED";
      reference_layers = r.layers;
    } else if (cluster_bench) {
      const cluster::ClusterReport measured_report =
          cluster_bench->last_report();
      const std::string measured_digest = reps.back().digest;
      const std::unique_ptr<cluster::Cluster> ref =
          cluster_bench->build(off, nullptr, true);
      const RepResult r = cluster_bench->rep(*ref, off, clock);
      const bool same = r.digest == measured_digest &&
                        cluster::simulated_cluster_reports_identical(
                            cluster_bench->last_report(), measured_report);
      reference = same ? "identical" : "DIVERGED";
    }
    if (reference == "DIVERGED") {
      errors.push_back("parallel reference run diverged");
    }
  }
  std::string capacity = "null";
  if (opt.capacity && serve_bench) {
    Tracer off(false);
    capacity =
        capacity_ladder(*serve_bench, spec->arrivals, opt.seed, off, clock);
  }

  std::size_t failed = 0;
  std::string rep_json;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    const std::size_t rep_failed =
        r.errors.empty() ? 0 : std::max(r.offered, std::size_t{1});
    failed += rep_failed;
    rep_json += std::string(i == 0 ? "" : ",\n  ") + "{\"cold\": " +
                (i == 0 ? "true" : "false") +
                ", \"build_s\": " + number(r.build.scaled_s) +
                ", \"scaled_s\": " + number(r.time.scaled_s) +
                ", \"cpu_s\": " + number(r.time.cpu_s) +
                ", \"wall_s\": " + number(r.time.wall_s) +
                ", \"offered\": " + std::to_string(r.offered) +
                ", \"completed\": " + std::to_string(r.completed) +
                ", \"failed\": " + std::to_string(rep_failed) +
                ", \"digest\": " + quoted(r.digest) +
                ", \"sim\": " + json_object(r.sim) +
                ", \"layers\": " + json_object(r.layers) + "}";
  }

  if (tracer.enabled() &&
      !tracer.write(opt.trace_out, ", \"obsMetrics\": " + obs_metrics)) {
    errors.push_back("cannot write " + opt.trace_out);
  }

  std::string error_json;
  for (const std::string& e : errors) {
    error_json += (error_json.empty() ? "" : ", ") + quoted(e);
  }
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"ok\": %s, \"errors\": [%s],\n"
      " \"setup_s\": %s, \"setup_layers\": %s,\n"
      " \"peak_rss_mb\": %s, \"threads\": %zu, \"failed\": %zu,\n"
      " \"reference\": %s, \"reference_layers\": %s, \"capacity\": %s,\n"
      " \"reps\": [%s]}\n",
      quoted(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      errors.empty() ? "true" : "false", error_json.c_str(),
      number(setup.scaled_s).c_str(), json_object(setup_layers).c_str(),
      number(rss_mb).c_str(), threads, failed, quoted(reference).c_str(),
      json_object(reference_layers).c_str(), capacity.c_str(),
      rep_json.c_str());
  for (const std::string& e : errors) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.c_str());
  }
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace mann::e2e

int main(int argc, char** argv) {
  using namespace mann;
  try {
    const e2e::Options opt = e2e::parse(argc, argv);
    if (opt.selftest) {
      return e2e::selftest(opt.seed) == 0 ? 0 : 1;
    }
    if (opt.train_suite) {
      const runtime::PrepareConfig cfg = bench::suite_config();
      if (!runtime::suite_cache_complete(cfg, opt.suite_dir)) {
        std::fprintf(stderr, "training the 20-task suite into %s ...\n",
                     opt.suite_dir.c_str());
        (void)runtime::prepare_suite_cached(cfg, opt.suite_dir);
      }
      return 0;
    }
    return e2e::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mann_e2e: %s\n", e.what());
    return 2;
  }
}
