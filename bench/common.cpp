#include "common.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "accel/compiler.hpp"

namespace mann::bench {

runtime::PrepareConfig suite_config() {
  runtime::PrepareConfig cfg = runtime::default_prepare_config();
  cfg.dataset.train_stories = 700;
  cfg.dataset.test_stories = 200;
  cfg.dataset.seed = 42;
  cfg.model.embedding_dim = 24;
  cfg.model.hops = 3;
  cfg.train.epochs = 25;
  cfg.train.anneal_every = 8;
  cfg.ith.rho = 1.0F;
  return cfg;
}

std::vector<runtime::TaskArtifacts> load_suite() {
  std::printf("# preparing 20-task suite (cached under mann_bench_cache/;"
              " first run trains ~20 models)\n");
  std::fflush(stdout);
  return runtime::prepare_suite_cached(suite_config(), "mann_bench_cache");
}

std::vector<serve::ServedModel> served_models(
    const std::vector<runtime::TaskArtifacts>& suite) {
  std::vector<serve::ServedModel> models;
  models.reserve(suite.size());
  for (const runtime::TaskArtifacts& art : suite) {
    models.push_back({accel::compile_model(art.model), art.dataset.test});
  }
  return models;
}

std::vector<sim::Cycle> mixed_slos(std::size_t tasks) {
  std::vector<sim::Cycle> slo(tasks, 0);
  for (std::size_t t = 0; t < tasks; ++t) {
    slo[t] = t % 2 == 0 ? 300'000 : 3'000'000;
  }
  return slo;
}

serve::ServerConfig acceptance_config(std::size_t tasks) {
  serve::ServerConfig config;
  config.scheduler.devices = 4;
  // Per-task sharding: stable residency keeps the pool warm, so repeated
  // batch windows recur instead of becoming new cold variants.
  config.scheduler.dedicated_devices = 4;
  config.traffic.mean_interarrival_cycles = 500.0;
  config.traffic.slo.per_task = mixed_slos(tasks);
  return config;
}

serve::ServerConfig trace_replay_config(std::vector<serve::TraceEntry> trace,
                                        std::size_t tasks) {
  serve::ServerConfig config;
  serve::TenantId max_tenant = 0;
  for (serve::TraceEntry& entry : trace) {
    entry.task %= tasks;
    max_tenant = std::max(max_tenant, entry.tenant);
  }
  if (max_tenant > 0) {
    config.traffic.tenants.assign(max_tenant + 1, serve::TenantConfig{});
  }
  config.scheduler.devices = 8;
  config.traffic.process = serve::ArrivalProcess::kTrace;
  config.traffic.trace = std::move(trace);
  config.traffic.slo.per_task = mixed_slos(tasks);
  return config;
}

cluster::ClusterConfig fleet_config(const serve::ServerConfig& instance,
                                    std::size_t scale) {
  cluster::ClusterConfig fleet;
  fleet.server = instance;
  fleet.server.traffic.trace =
      serve::scale_trace(instance.traffic.trace, scale, instance.traffic.seed);
  fleet.instances = 4;
  fleet.router.spill_queue_threshold = 256;
  return fleet;
}

namespace {

SuiteMeasurement aggregate(std::string name,
                           const std::vector<runtime::MeasurementRow>& rows,
                           const std::vector<std::size_t>& stories) {
  SuiteMeasurement m;
  m.name = std::move(name);
  double joules = 0.0;
  double acc_weighted = 0.0;
  double probes_weighted = 0.0;
  std::size_t total_stories = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    m.energy.seconds += rows[i].energy.seconds;
    m.energy.flops += rows[i].energy.flops;
    joules += rows[i].energy.joules();
    acc_weighted += rows[i].accuracy * static_cast<double>(stories[i]);
    probes_weighted +=
        rows[i].mean_output_probes * static_cast<double>(stories[i]);
    m.link_active_seconds += rows[i].link_active_seconds;
    total_stories += stories[i];
  }
  m.energy.watts = m.energy.seconds > 0.0 ? joules / m.energy.seconds : 0.0;
  if (total_stories > 0) {
    m.accuracy = acc_weighted / static_cast<double>(total_stories);
    m.mean_output_probes =
        probes_weighted / static_cast<double>(total_stories);
  }
  return m;
}

}  // namespace

SuiteMeasurement measure_suite_baseline(
    const std::vector<runtime::TaskArtifacts>& suite,
    const runtime::BaselineConfig& baseline, std::size_t repetitions) {
  std::vector<runtime::MeasurementRow> rows;
  std::vector<std::size_t> stories;
  for (const runtime::TaskArtifacts& art : suite) {
    rows.push_back(runtime::measure_baseline(baseline, art, repetitions));
    stories.push_back(art.dataset.test.size());
  }
  return aggregate(baseline.name, rows, stories);
}

SuiteMeasurement measure_suite_fpga(
    const std::vector<runtime::TaskArtifacts>& suite,
    runtime::FpgaRunOptions options) {
  std::vector<runtime::MeasurementRow> rows;
  std::vector<std::size_t> stories;
  std::string name;
  for (const runtime::TaskArtifacts& art : suite) {
    rows.push_back(runtime::measure_fpga(art, options));
    stories.push_back(art.dataset.test.size());
    name = rows.back().config_name;
  }
  return aggregate(std::move(name), rows, stories);
}

void print_rule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

void print_header(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

std::uint64_t count_flag(const std::string& flag, const char* value,
                         std::uint64_t least) {
  const std::optional<std::uint64_t> parsed = serve::parse_digits(value);
  if (!parsed || *parsed < least) {
    std::fprintf(stderr, "%s needs an integer >= %llu, got '%s'\n",
                 flag.c_str(), static_cast<unsigned long long>(least), value);
    std::exit(2);
  }
  return *parsed;
}

}  // namespace mann::bench
