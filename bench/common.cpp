#include "common.hpp"

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

}  // namespace mann::bench
