#include "runtime/measurement.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "accel/compiler.hpp"
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

/// FNV-1a: the cache's fingerprints and checksums.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Appends `value`'s bytes (cache names and ITH records are native-endian,
/// like the model files).
template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

/// Reads a T at `at` and moves past it; the caller has checked the size.
template <typename T>
T get(std::string_view bytes, std::size_t& at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  at += sizeof(T);
  return value;
}

/// The path of a task's cache files without extension: a readable prefix
/// of the main knobs, then a fingerprint of every field that shapes
/// training. test_stories belongs there because the test split adds words
/// to the joint vocabulary, which fixes the model's shapes and indices;
/// ModelConfig::vocab_size is filled per task and is left out.
std::string cache_stem(const PrepareConfig& c, const std::string& dir,
                       data::TaskId id) {
  std::string knobs;
  put<std::uint64_t>(knobs, c.dataset.train_stories);
  put<std::uint64_t>(knobs, c.dataset.test_stories);
  put<std::uint64_t>(knobs, c.dataset.seed);
  put<std::uint64_t>(knobs, c.model.embedding_dim);
  put<std::uint64_t>(knobs, c.model.hops);
  put<std::uint64_t>(knobs, c.model.max_memory);
  put(knobs, c.model.init_stddev);
  put<std::uint64_t>(knobs, c.train.epochs);
  put(knobs, c.train.learning_rate);
  put(knobs, c.train.anneal_factor);
  put<std::uint64_t>(knobs, c.train.anneal_every);
  put(knobs, c.train.max_grad_norm);
  put<std::uint64_t>(knobs, c.train.shuffle_seed);
  put<std::uint64_t>(knobs, c.train.linear_start_epochs);
  put<std::uint64_t>(knobs, c.init_seed);
  std::array<char, 17> fingerprint{};
  std::snprintf(fingerprint.data(), fingerprint.size(), "%016llx",
                static_cast<unsigned long long>(fnv1a(knobs)));
  return dir + "/g" + std::to_string(data::kGeneratorVersion) + "_task" +
         std::to_string(data::task_number(id)) + "_s" +
         std::to_string(c.dataset.seed) + "_n" +
         std::to_string(c.dataset.train_stories) + "_e" +
         std::to_string(c.model.embedding_dim) + "_h" +
         std::to_string(c.model.hops) + "_ep" +
         std::to_string(c.train.epochs) + "_i" +
         std::to_string(c.init_seed) + "_f" + fingerprint.data();
}

/// The whole file, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

/// The model in `bytes` when they load and fit the task's vocabulary. A
/// file torn by a crash (or an older non-atomic writer) or holding a
/// stale vocabulary (the data generator changed) does not.
std::optional<model::MemN2N> parse_model(const std::string& bytes,
                                         std::size_t vocab_size) {
  try {
    std::istringstream in(bytes);
    model::MemN2N net = model::load_model(in);
    if (net.config().vocab_size == vocab_size) {
      return net;
    }
  } catch (const std::runtime_error&) {
  }
  return std::nullopt;
}

/// Trains a fresh model on the dataset's training split.
model::MemN2N train_model(const data::TaskDataset& dataset,
                          const PrepareConfig& config) {
  model::ModelConfig mc = config.model;
  mc.vocab_size = dataset.vocab_size();
  numeric::Rng init_rng(
      config.init_seed +
      static_cast<std::uint64_t>(data::task_number(dataset.id)));
  model::MemN2N net(mc, init_rng);
  model::train(net, dataset.train, config.train);
  return net;
}

// An ITH record is the key below, the class count, then per-class
// thresholds (f32), probe order (u64), silhouettes (f32) and priors (f32),
// and last an FNV-1a of everything before it.
constexpr std::array<char, 4> kRecordMagic = {'M', 'I', 'T', 'H'};
constexpr std::uint32_t kRecordFormat = 1;
constexpr std::size_t kRecordBytesPerClass =
    3 * sizeof(float) + sizeof(std::uint64_t);

/// What a record must start with to be loaded for `config` and the model
/// file whose FNV-1a is `model_checksum`.
std::string record_key(const PrepareConfig& config,
                       std::uint64_t model_checksum) {
  std::string key(kRecordMagic.begin(), kRecordMagic.end());
  put(key, kRecordFormat);
  put(key, core::kCalibrationVersion);
  put(key, config.ith.rho);
  put(key, config.ith.kde_bandwidth);
  put<std::uint64_t>(key, config.ith.min_positive_samples);
  put<std::uint8_t>(key, config.ith.use_priors ? 1 : 0);
  put(key, config.ith.support_sigmas);
  put<std::uint64_t>(key, config.dataset.train_stories);
  put<std::uint64_t>(key, config.dataset.test_stories);
  put<std::uint64_t>(key, config.dataset.seed);
  put(key, model_checksum);
  return key;
}

std::string encode_record(std::string key,
                          const core::InferenceThresholding& ith) {
  std::string bytes = std::move(key);
  put<std::uint64_t>(bytes, ith.num_classes());
  for (const float theta : ith.thresholds()) {
    put(bytes, theta);
  }
  for (const std::size_t cls : ith.probe_order()) {
    put<std::uint64_t>(bytes, cls);
  }
  for (const float s : ith.silhouettes()) {
    put(bytes, s);
  }
  for (const float p : ith.priors()) {
    put(bytes, p);
  }
  put(bytes, fnv1a(bytes));
  return bytes;
}

/// The tables of the record at `path` when it is intact, starts with
/// `key` and holds `classes` classes; nullopt otherwise.
std::optional<core::InferenceThresholding> load_record(
    const std::string& path, const std::string& key,
    const core::IthConfig& config, std::size_t classes) {
  const std::optional<std::string> file = read_file(path);
  if (!file) {
    return std::nullopt;
  }
  const std::string_view bytes = *file;
  const std::size_t body =
      key.size() + sizeof(std::uint64_t) + classes * kRecordBytesPerClass;
  if (bytes.size() != body + sizeof(std::uint64_t) ||
      bytes.substr(0, key.size()) != key) {
    return std::nullopt;
  }
  std::size_t at = body;
  if (get<std::uint64_t>(bytes, at) != fnv1a(bytes.substr(0, body))) {
    return std::nullopt;
  }
  at = key.size();
  if (get<std::uint64_t>(bytes, at) != classes) {
    return std::nullopt;
  }
  std::vector<float> thresholds(classes);
  std::vector<std::size_t> order(classes);
  std::vector<float> silhouettes(classes);
  std::vector<float> priors(classes);
  for (float& theta : thresholds) {
    theta = get<float>(bytes, at);
  }
  for (std::size_t& cls : order) {
    cls = static_cast<std::size_t>(get<std::uint64_t>(bytes, at));
  }
  for (float& s : silhouettes) {
    s = get<float>(bytes, at);
  }
  for (float& p : priors) {
    p = get<float>(bytes, at);
  }
  try {
    return core::InferenceThresholding(config, std::move(thresholds),
                                       std::move(order),
                                       std::move(silhouettes),
                                       std::move(priors));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace

TaskArtifacts prepare_task(data::TaskId id, const PrepareConfig& config) {
  data::TaskDataset dataset = data::build_task_dataset(id, config.dataset);
  model::MemN2N net = train_model(dataset, config);
  core::InferenceThresholding ith =
      core::InferenceThresholding::calibrate(net, dataset.train, config.ith);
  return {std::move(dataset), std::move(net), std::move(ith)};
}

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
    const std::string stem = cache_stem(config, cache_dir, ds.id);
    std::string model_bytes = read_file(stem + ".mann").value_or("");
    std::optional<model::MemN2N> net =
        parse_model(model_bytes, ds.vocab_size());
    if (!net) {
      net = train_model(ds, config);
      std::ostringstream out;
      model::save_model(out, *net);
      model_bytes = std::move(out).str();
      model::write_file_atomically(stem + ".mann", model_bytes);
    }
    std::string key = record_key(config, fnv1a(model_bytes));
    std::optional<core::InferenceThresholding> ith =
        load_record(stem + ".ith", key, config.ith, ds.vocab_size());
    if (!ith) {
      ith = core::InferenceThresholding::calibrate(*net, ds.train,
                                                   config.ith);
      model::write_file_atomically(stem + ".ith",
                                   encode_record(std::move(key), *ith));
    }
    suite.push_back({std::move(ds), std::move(*net), std::move(*ith)});
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
    const std::string stem = cache_stem(config, cache_dir, tasks[i]);
    if (!std::filesystem::exists(stem + ".mann") ||
        !std::filesystem::exists(stem + ".ith")) {
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
