#include "runtime/measurement.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "accel/compiler.hpp"
#include "core/ith_eval.hpp"
#include "model/flops.hpp"
#include "model/serialize.hpp"
#include "serve/options.hpp"

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
      model::MemN2N net = model::load_model_file(path);
      if (net.config().vocab_size == ds.vocab_size()) {
        suite.push_back(
            finish_from_model(std::move(ds), std::move(net), config));
        continue;
      }
      // Stale cache (data generator changed): fall through and retrain.
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

namespace {

/// Compiles every suite task into the served-model registry (the same
/// build for a bare Server and for every cluster instance).
std::vector<serve::ServedModel> build_served_models(
    const std::vector<TaskArtifacts>& suite, const ServingOptions& options) {
  std::vector<serve::ServedModel> models;
  models.reserve(suite.size());
  for (const TaskArtifacts& art : suite) {
    serve::ServedModel model;
    model.program =
        accel::compile_model(art.model, options.ith ? &art.ith : nullptr);
    model.stories = art.dataset.test;
    models.push_back(std::move(model));
  }
  return models;
}

/// Lowers the harness-level ServingOptions into a full ServerConfig —
/// shared by measure_serving (one server) and measure_cluster (the
/// per-instance template).
serve::ServerConfig build_server_config(const ServingOptions& options) {
  accel::AccelConfig accel;
  accel.clock_hz = options.clock_hz;
  accel.ith_enabled = options.ith;

  serve::TrafficConfig traffic;
  traffic.process = options.process;
  traffic.mean_interarrival_cycles = options.mean_interarrival_cycles;
  traffic.diurnal_amplitude = options.diurnal_amplitude;
  traffic.diurnal_period_cycles = options.diurnal_period_cycles;
  traffic.trace = options.trace;
  traffic.seed = options.seed;

  serve::SloConfig slo;
  slo.default_deadline_cycles = options.slo_default_deadline_cycles;
  slo.per_task = options.slo_per_task;

  serve::BatcherConfig batcher;
  batcher.max_batch = options.max_batch;
  batcher.max_wait_cycles = options.max_wait_cycles;

  serve::SchedulerConfig scheduler;
  scheduler.devices = options.pool_devices;
  scheduler.dedicated_devices = options.dedicated_devices;
  scheduler.work_stealing = options.work_stealing;
  scheduler.eviction = options.eviction;
  scheduler.workers = options.workers;
  scheduler.affinity_speculation = options.affinity_speculation;
  scheduler.cache_capacity = options.cache_capacity;
  scheduler.cycle_cache = options.cycle_cache;

  // tenants()/slo()/policy() after traffic()/scheduler(): the block
  // setters replace their whole config, the granular ones just a slice.
  return serve::ServingOptions()
      .accel(accel)
      .traffic(std::move(traffic))
      .admission(options.admission)
      .batcher(batcher)
      .scheduler(std::move(scheduler))
      .tenants(options.tenants)
      .slo(std::move(slo))
      .policy(options.policy)
      .metrics(options.metrics)
      .trace_recorder(options.trace_recorder)
      .build();
}

}  // namespace

ServingMeasurement measure_serving(const std::vector<TaskArtifacts>& suite,
                                   const ServingOptions& options) {
  if (suite.empty()) {
    throw std::invalid_argument("measure_serving: empty suite");
  }

  const serve::Server server(build_server_config(options),
                             build_served_models(suite, options));

  ServingMeasurement measurement;
  measurement.config_name =
      "serve N=" + std::to_string(options.pool_devices) +
      " B=" + std::to_string(options.max_batch) + " ia=" +
      std::to_string(static_cast<long long>(
          options.mean_interarrival_cycles)) +
      "cy " + serve::scheduler_policy_name(options.policy) +
      (options.ith ? " + ITH" : "");
  if (!options.tenants.empty()) {
    measurement.config_name +=
        " T=" + std::to_string(options.tenants.size());
  }
  if (options.workers > 0) {
    measurement.config_name += " W=" + std::to_string(options.workers);
  }
  if (options.workers > 0 || options.cycle_cache != nullptr) {
    measurement.config_name += " +cache";
  }
  measurement.report = server.run(options.requests);
  return measurement;
}

ClusterMeasurement measure_cluster(const std::vector<TaskArtifacts>& suite,
                                   const ServingOptions& options,
                                   const ClusterServingOptions& cluster_options) {
  if (suite.empty()) {
    throw std::invalid_argument("measure_cluster: empty suite");
  }

  // The registry outlives the fleet: instances hold references, each
  // with its own device pool.
  const std::vector<serve::ServedModel> models =
      build_served_models(suite, options);

  cluster::ClusterConfig config;
  config.instances = cluster_options.instances;
  config.server = build_server_config(options);
  config.router = cluster_options.router;
  config.autoscaler = cluster_options.autoscaler;
  config.fleet_threads = cluster_options.fleet_threads;
  config.cache_segments = cluster_options.cache_segments;

  cluster::Cluster fleet(std::move(config), models);

  ClusterMeasurement measurement;
  measurement.config_name =
      "cluster x" + std::to_string(cluster_options.instances) + " " +
      cluster::router_policy_name(cluster_options.router.kind) +
      " N=" + std::to_string(options.pool_devices) +
      " B=" + std::to_string(options.max_batch) +
      (cluster_options.autoscaler.enabled ? " +autoscale" : "") +
      (options.workers > 0 ? " W=" + std::to_string(options.workers) : "") +
      (cluster_options.fleet_threads > 1
           ? " F=" + std::to_string(cluster_options.fleet_threads)
           : "");

  const auto start = std::chrono::steady_clock::now();
  measurement.report = fleet.run(options.requests);
  measurement.host_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return measurement;
}

}  // namespace mann::runtime
