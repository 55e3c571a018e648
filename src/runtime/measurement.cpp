#include "runtime/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "accel/compiler.hpp"
#include "core/ith_eval.hpp"
#include "model/flops.hpp"
#include "model/serialize.hpp"

namespace mann::runtime {

PrepareConfig default_prepare_config() {
  PrepareConfig c;
  c.model.embedding_dim = 24;
  c.model.hops = 3;
  c.model.max_memory = 50;
  c.train.epochs = 30;
  c.train.learning_rate = 0.02F;
  c.train.anneal_every = 10;
  c.ith.rho = 1.0F;
  return c;
}

namespace {
TaskArtifacts finish_artifacts(data::TaskDataset dataset,
                               const PrepareConfig& config);
}  // namespace

TaskArtifacts prepare_task(data::TaskId id, const PrepareConfig& config) {
  return finish_artifacts(data::build_task_dataset(id, config.dataset),
                          config);
}

namespace {

TaskArtifacts finish_artifacts(data::TaskDataset dataset,
                               const PrepareConfig& config) {
  model::ModelConfig mc = config.model;
  mc.vocab_size = dataset.vocab_size();
  numeric::Rng init_rng(
      config.init_seed +
      static_cast<std::uint64_t>(data::task_number(dataset.id)));
  model::MemN2N net(mc, init_rng);
  model::train(net, dataset.train, config.train);

  core::InferenceThresholding ith = core::InferenceThresholding::calibrate(
      net, dataset.train, config.ith);

  TaskArtifacts art{std::move(dataset), std::move(net), std::move(ith)};
  art.test_accuracy = model::evaluate_accuracy(art.model, art.dataset.test);
  art.ith_test_accuracy =
      core::evaluate_ith(art.model, art.ith, art.dataset.test).accuracy;
  return art;
}

}  // namespace

std::vector<TaskArtifacts> prepare_suite(const PrepareConfig& config) {
  std::vector<data::TaskDataset> datasets =
      data::build_joint_suite(config.dataset);
  std::vector<TaskArtifacts> suite;
  suite.reserve(datasets.size());
  for (data::TaskDataset& ds : datasets) {
    suite.push_back(finish_artifacts(std::move(ds), config));
  }
  return suite;
}

namespace {

std::string cache_key(const PrepareConfig& c, data::TaskId id) {
  std::string key = "g";
  key += std::to_string(data::kGeneratorVersion) + "_task" +
         std::to_string(data::task_number(id)) + "_s" +
         std::to_string(c.dataset.seed) + "_n" +
         std::to_string(c.dataset.train_stories) + "_e" +
         std::to_string(c.model.embedding_dim) + "_h" +
         std::to_string(c.model.hops) + "_ep" +
         std::to_string(c.train.epochs) + "_i" +
         std::to_string(c.init_seed) + ".mann";
  return key;
}

TaskArtifacts finish_from_model(data::TaskDataset dataset,
                                model::MemN2N net,
                                const PrepareConfig& config) {
  core::InferenceThresholding ith = core::InferenceThresholding::calibrate(
      net, dataset.train, config.ith);
  TaskArtifacts art{std::move(dataset), std::move(net), std::move(ith)};
  art.test_accuracy = model::evaluate_accuracy(art.model, art.dataset.test);
  art.ith_test_accuracy =
      core::evaluate_ith(art.model, art.ith, art.dataset.test).accuracy;
  return art;
}

}  // namespace

std::vector<TaskArtifacts> prepare_suite_cached(const PrepareConfig& config,
                                                const std::string& cache_dir,
                                                std::size_t max_tasks) {
  std::filesystem::create_directories(cache_dir);
  std::vector<data::TaskDataset> datasets =
      data::build_joint_suite(config.dataset);
  if (max_tasks > 0 && max_tasks < datasets.size()) {
    datasets.resize(max_tasks);
  }
  std::vector<TaskArtifacts> suite;
  suite.reserve(datasets.size());
  for (data::TaskDataset& ds : datasets) {
    const std::string path = cache_dir + "/" + cache_key(config, ds.id);
    if (std::filesystem::exists(path)) {
      // A file that does not load (torn by a crash or an older
      // non-atomic writer) or whose vocabulary is stale (data generator
      // changed) is retrained and replaced.
      std::optional<model::MemN2N> net;
      try {
        net = model::load_model_file(path);
      } catch (const std::runtime_error&) {
      }
      if (net && net->config().vocab_size == ds.vocab_size()) {
        suite.push_back(
            finish_from_model(std::move(ds), std::move(*net), config));
        continue;
      }
    }
    TaskArtifacts art = finish_artifacts(std::move(ds), config);
    model::save_model_file(path, art.model);
    suite.push_back(std::move(art));
  }
  return suite;
}

bool suite_cache_complete(const PrepareConfig& config,
                          const std::string& cache_dir,
                          std::size_t max_tasks) {
  const std::vector<data::TaskId>& tasks = data::all_tasks();
  const std::size_t count =
      max_tasks > 0 ? std::min(max_tasks, tasks.size()) : tasks.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::filesystem::exists(cache_dir + "/" +
                                 cache_key(config, tasks[i]))) {
      return false;
    }
  }
  return true;
}

MeasurementRow measure_baseline(const BaselineConfig& baseline,
                                const TaskArtifacts& artifacts,
                                std::size_t repetitions) {
  const BaselineResult r = run_baseline(baseline, artifacts.model,
                                        artifacts.dataset.test, repetitions);
  MeasurementRow row;
  row.config_name = baseline.name;
  row.energy = r.energy;
  row.accuracy = r.accuracy();
  return row;
}

MeasurementRow measure_fpga(const TaskArtifacts& artifacts,
                            const FpgaRunOptions& options,
                            const power::FpgaPowerConfig& power_config) {
  accel::AccelConfig cfg;
  cfg.clock_hz = options.clock_hz;
  cfg.ith_enabled = options.ith;
  cfg.use_index_ordering = options.index_ordering;
  if (options.link) {
    cfg.link = *options.link;
  }

  const accel::DeviceProgram program = accel::compile_model(
      artifacts.model, options.ith ? &artifacts.ith : nullptr);
  const accel::Accelerator device(cfg, program);
  const accel::RunResult run = device.run(artifacts.dataset.test);

  const power::FpgaPowerModel power_model(power_config);
  const power::FpgaPowerReport power = power_model.estimate(run,
                                                            options.clock_hz);

  // FLOP numerator: the model's nominal inference FLOPs (identical across
  // configurations at a given workload, the paper's convention).
  std::uint64_t flops = 0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < artifacts.dataset.test.size(); ++i) {
    const data::EncodedStory& story = artifacts.dataset.test[i];
    flops += model::count_flops(story, artifacts.model.config()).total();
    if (run.stories[i].prediction == story.answer) {
      ++correct;
    }
  }

  const auto reps = static_cast<double>(options.repetitions);
  MeasurementRow row;
  row.config_name =
      "FPGA " + std::to_string(static_cast<int>(options.clock_hz / 1.0e6)) +
      " MHz" + (options.ith ? " + ITH" : "");
  row.energy.seconds = run.seconds * reps;
  row.energy.watts = power.mean_watts;
  row.energy.flops =
      flops * static_cast<std::uint64_t>(options.repetitions);
  row.accuracy = static_cast<double>(correct) /
                 static_cast<double>(artifacts.dataset.test.size());
  row.mean_output_probes = run.mean_output_probes();
  row.early_exit_rate = run.early_exit_rate();
  row.link_active_seconds =
      static_cast<double>(run.link_active_cycles) / options.clock_hz * reps;
  return row;
}

}  // namespace mann::runtime
