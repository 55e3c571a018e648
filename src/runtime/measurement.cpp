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
#include <utility>

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

/// Appends `value`'s bytes (cache names and records are native-endian,
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

/// The model in `bytes` when they load and have the dimensions `expected`
/// asks for. A file torn by a crash (or an older non-atomic writer), one
/// with a corrupt header, or one holding a stale vocabulary (the data
/// generator changed) does not.
std::optional<model::MemN2N> parse_model(const std::string& bytes,
                                         const model::ModelConfig& expected) {
  try {
    std::istringstream in(bytes);
    model::MemN2N net = model::load_model(in);
    const model::ModelConfig& c = net.config();
    if (c.vocab_size == expected.vocab_size &&
        c.embedding_dim == expected.embedding_dim &&
        c.hops == expected.hops && c.max_memory == expected.max_memory) {
      return net;
    }
  } catch (const std::runtime_error&) {
  }
  return std::nullopt;
}

/// The dimensions of every model trained on `dataset` under `config`.
model::ModelConfig model_config(const data::TaskDataset& dataset,
                                const PrepareConfig& config) {
  model::ModelConfig mc = config.model;
  mc.vocab_size = dataset.vocab_size();
  return mc;
}

/// Trains a fresh model on the dataset's training split.
model::MemN2N train_model(const data::TaskDataset& dataset,
                          const PrepareConfig& config) {
  numeric::Rng init_rng(
      config.init_seed +
      static_cast<std::uint64_t>(data::task_number(dataset.id)));
  model::MemN2N net(model_config(dataset, config), init_rng);
  model::train(net, dataset.train, config.train);
  return net;
}

/// Reads a record's body front to back. A read past the end yields zero
/// and fails the reader, so a loader checks `fits` before it allocates
/// for a count it has read, and the framing checks `done` at the end.
class RecordReader {
 public:
  explicit RecordReader(std::string_view body) : body_(body) {}

  template <typename T>
  T take() {
    if (sizeof(T) > left()) {
      failed_ = true;
      return T{};
    }
    return get<T>(body_, at_);
  }

  std::string_view take_bytes(std::size_t n) {
    if (n > left()) {
      failed_ = true;
      return {};
    }
    const std::string_view bytes = body_.substr(at_, n);
    at_ += n;
    return bytes;
  }

  /// Whether `count` items of at least `bytes_each` bytes each can still
  /// follow.
  [[nodiscard]] bool fits(std::uint64_t count, std::size_t bytes_each) const {
    return count <= left() / bytes_each;
  }

  /// Every read was whole and the body is used up: the record is exactly
  /// as long as its counts say.
  [[nodiscard]] bool done() const { return !failed_ && at_ == body_.size(); }

 private:
  [[nodiscard]] std::size_t left() const { return body_.size() - at_; }

  std::string_view body_;
  std::size_t at_ = 0;
  bool failed_ = false;
};

// Every record is a key (what it must have been written for), a body,
// and an FNV-1a of everything before that trailer.

/// Closes a record: appends the trailer.
std::string seal(std::string bytes) {
  put(bytes, fnv1a(bytes));
  return bytes;
}

/// What `parse` reads from the body of the record at `path`, when the
/// file starts with `key`, its trailer matches, and `parse` succeeds and
/// uses up the body exactly; nullopt otherwise.
template <typename Parse>
auto load_record(const std::string& path, std::string_view key, Parse parse)
    -> decltype(parse(std::declval<RecordReader&>())) {
  const std::optional<std::string> file = read_file(path);
  if (!file || file->size() < key.size() + sizeof(std::uint64_t)) {
    return std::nullopt;
  }
  const std::string_view bytes = *file;
  const std::size_t body_end = bytes.size() - sizeof(std::uint64_t);
  std::size_t at = body_end;
  if (bytes.substr(0, key.size()) != key ||
      get<std::uint64_t>(bytes, at) != fnv1a(bytes.substr(0, body_end))) {
    return std::nullopt;
  }
  RecordReader body(bytes.substr(key.size(), body_end - key.size()));
  auto value = parse(body);
  if (!body.done()) {
    return std::nullopt;
  }
  return value;
}

// An ITH record's body is the class count, then per-class thresholds
// (f32), probe order (u64), silhouettes (f32) and priors (f32).
constexpr std::array<char, 4> kIthMagic = {'M', 'I', 'T', 'H'};
constexpr std::uint32_t kIthFormat = 1;
constexpr std::size_t kIthBytesPerClass =
    3 * sizeof(float) + sizeof(std::uint64_t);

/// What an ITH record must start with to be loaded for `config` and the
/// model file whose FNV-1a is `model_checksum`.
std::string ith_key(const PrepareConfig& config,
                    std::uint64_t model_checksum) {
  std::string key(kIthMagic.begin(), kIthMagic.end());
  put(key, kIthFormat);
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

std::string encode_ith_record(std::string key,
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
  return seal(std::move(bytes));
}

/// The tables of the ITH record at `path` when it is intact, starts with
/// `key` and holds `classes` classes; nullopt otherwise.
std::optional<core::InferenceThresholding> load_ith_record(
    const std::string& path, const std::string& key,
    const core::IthConfig& config, std::size_t classes) {
  return load_record(
      path, key,
      [&](RecordReader& body) -> std::optional<core::InferenceThresholding> {
        if (body.take<std::uint64_t>() != classes ||
            !body.fits(classes, kIthBytesPerClass)) {
          return std::nullopt;
        }
        std::vector<float> thresholds(classes);
        std::vector<std::size_t> order(classes);
        std::vector<float> silhouettes(classes);
        std::vector<float> priors(classes);
        for (float& theta : thresholds) {
          theta = body.take<float>();
        }
        for (std::size_t& cls : order) {
          cls = static_cast<std::size_t>(body.take<std::uint64_t>());
        }
        for (float& s : silhouettes) {
          s = body.take<float>();
        }
        for (float& p : priors) {
          p = body.take<float>();
        }
        try {
          return core::InferenceThresholding(
              config, std::move(thresholds), std::move(order),
              std::move(silhouettes), std::move(priors));
        } catch (const std::invalid_argument&) {
          return std::nullopt;
        }
      });
}

// A dataset record's body is the joint vocabulary (u64 word count, then
// per word a u32 length and its bytes, in id order) and the train and
// test splits. A split is a u64 story count, then per story a u32
// sentence count, each sentence as a u32 word count and its i32 ids, the
// question the same way, and the i32 answer id.
constexpr std::array<char, 4> kDataMagic = {'M', 'D', 'A', 'T'};
constexpr std::uint32_t kDataFormat = 1;
/// The fewest bytes a story takes: empty context, empty question, answer.
constexpr std::size_t kDataMinStoryBytes =
    2 * sizeof(std::uint32_t) + sizeof(std::int32_t);

/// What a task's dataset record must start with to be loaded for
/// `config`: the generator that produced it, the task and every knob
/// that shapes the joint suite.
std::string data_key(const data::DatasetConfig& config, data::TaskId id) {
  std::string key(kDataMagic.begin(), kDataMagic.end());
  put(key, kDataFormat);
  put<std::uint32_t>(key, data::kGeneratorVersion);
  put<std::uint64_t>(key, static_cast<std::uint64_t>(data::task_number(id)));
  put<std::uint64_t>(key, config.train_stories);
  put<std::uint64_t>(key, config.test_stories);
  put<std::uint64_t>(key, config.seed);
  return key;
}

void put_ids(std::string& out, const std::vector<std::int32_t>& ids) {
  put(out, static_cast<std::uint32_t>(ids.size()));
  for (const std::int32_t id : ids) {
    put(out, id);
  }
}

std::string encode_data_record(std::string key,
                               const data::TaskDataset& dataset) {
  std::string bytes = std::move(key);
  put<std::uint64_t>(bytes, dataset.vocab_size());
  for (std::size_t i = 0; i < dataset.vocab_size(); ++i) {
    const std::string& word =
        dataset.vocab.word(static_cast<std::int32_t>(i));
    put(bytes, static_cast<std::uint32_t>(word.size()));
    bytes += word;
  }
  for (const auto* split : {&dataset.train, &dataset.test}) {
    put<std::uint64_t>(bytes, split->size());
    for (const data::EncodedStory& story : *split) {
      put(bytes, static_cast<std::uint32_t>(story.context.size()));
      for (const std::vector<std::int32_t>& sentence : story.context) {
        put_ids(bytes, sentence);
      }
      put_ids(bytes, story.question);
      put(bytes, story.answer);
    }
  }
  return seal(std::move(bytes));
}

bool in_vocab(std::int32_t id, std::size_t vocab_size) {
  return id >= 0 && static_cast<std::size_t>(id) < vocab_size;
}

bool take_ids(RecordReader& body, std::size_t vocab_size,
              std::vector<std::int32_t>& ids) {
  const auto count = body.take<std::uint32_t>();
  if (!body.fits(count, sizeof(std::int32_t))) {
    return false;
  }
  ids.resize(count);
  for (std::int32_t& id : ids) {
    id = body.take<std::int32_t>();
    if (!in_vocab(id, vocab_size)) {
      return false;
    }
  }
  return true;
}

bool take_split(RecordReader& body, std::size_t vocab_size,
                std::vector<data::EncodedStory>& stories) {
  const auto count = body.take<std::uint64_t>();
  if (!body.fits(count, kDataMinStoryBytes)) {
    return false;
  }
  stories.resize(static_cast<std::size_t>(count));
  for (data::EncodedStory& story : stories) {
    const auto sentences = body.take<std::uint32_t>();
    if (!body.fits(sentences, sizeof(std::uint32_t))) {
      return false;
    }
    story.context.resize(sentences);
    for (std::vector<std::int32_t>& sentence : story.context) {
      if (!take_ids(body, vocab_size, sentence)) {
        return false;
      }
    }
    if (!take_ids(body, vocab_size, story.question)) {
      return false;
    }
    story.answer = body.take<std::int32_t>();
    if (!in_vocab(story.answer, vocab_size)) {
      return false;
    }
  }
  return true;
}

/// Task `id`'s dataset from the record at `path` when it is intact,
/// starts with `key`, and its words are distinct and its ids in range;
/// nullopt otherwise.
std::optional<data::TaskDataset> load_data_record(const std::string& path,
                                                  const std::string& key,
                                                  data::TaskId id) {
  return load_record(
      path, key, [&](RecordReader& body) -> std::optional<data::TaskDataset> {
        data::TaskDataset dataset;
        dataset.id = id;
        const auto words = body.take<std::uint64_t>();
        if (!body.fits(words, sizeof(std::uint32_t))) {
          return std::nullopt;
        }
        for (std::uint64_t i = 0; i < words; ++i) {
          dataset.vocab.add(body.take_bytes(body.take<std::uint32_t>()));
        }
        if (dataset.vocab.size() != words ||
            !take_split(body, words, dataset.train) ||
            !take_split(body, words, dataset.test)) {
          return std::nullopt;
        }
        return dataset;
      });
}

bool same_words(const data::Vocab& a, const data::Vocab& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    if (a.word(id) != b.word(id)) {
      return false;
    }
  }
  return true;
}

/// The datasets of the tasks with cache stems `stems`, read from their
/// records. The joint suite is generated only when a record is missing,
/// corrupt, keyed differently or holds another vocabulary than the
/// first; then every record that differs from the generated one is
/// rewritten.
std::vector<data::TaskDataset> load_datasets(
    const data::DatasetConfig& config, const std::vector<std::string>& stems) {
  const std::vector<data::TaskId>& tasks = data::all_tasks();
  std::vector<data::TaskDataset> datasets;
  datasets.reserve(stems.size());
  for (std::size_t t = 0; t < stems.size(); ++t) {
    std::optional<data::TaskDataset> dataset = load_data_record(
        stems[t] + ".data", data_key(config, tasks[t]), tasks[t]);
    if (!dataset ||
        (t > 0 && !same_words(dataset->vocab, datasets.front().vocab))) {
      break;
    }
    datasets.push_back(std::move(*dataset));
  }
  if (datasets.size() == stems.size()) {
    return datasets;
  }
  datasets = data::build_joint_suite(config);
  datasets.resize(stems.size());
  for (std::size_t t = 0; t < stems.size(); ++t) {
    const std::string bytes =
        encode_data_record(data_key(config, tasks[t]), datasets[t]);
    if (read_file(stems[t] + ".data") != bytes) {
      model::write_file_atomically(stems[t] + ".data", bytes);
    }
  }
  return datasets;
}

/// How many suite tasks a load with `max_tasks` returns.
std::size_t suite_size(std::size_t max_tasks) {
  const std::size_t all = data::all_tasks().size();
  return max_tasks > 0 ? std::min(max_tasks, all) : all;
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
  std::vector<std::string> stems;
  for (std::size_t t = 0; t < suite_size(max_tasks); ++t) {
    stems.push_back(cache_stem(config, cache_dir, data::all_tasks()[t]));
  }
  std::vector<data::TaskDataset> datasets =
      load_datasets(config.dataset, stems);
  std::vector<TaskArtifacts> suite;
  suite.reserve(datasets.size());
  for (std::size_t t = 0; t < datasets.size(); ++t) {
    data::TaskDataset& ds = datasets[t];
    const std::string& stem = stems[t];
    std::string model_bytes = read_file(stem + ".mann").value_or("");
    std::optional<model::MemN2N> net =
        parse_model(model_bytes, model_config(ds, config));
    if (!net) {
      net = train_model(ds, config);
      std::ostringstream out;
      model::save_model(out, *net);
      model_bytes = std::move(out).str();
      model::write_file_atomically(stem + ".mann", model_bytes);
    }
    std::string key = ith_key(config, fnv1a(model_bytes));
    std::optional<core::InferenceThresholding> ith =
        load_ith_record(stem + ".ith", key, config.ith, ds.vocab_size());
    if (!ith) {
      ith = core::InferenceThresholding::calibrate(*net, ds.train,
                                                   config.ith);
      model::write_file_atomically(stem + ".ith",
                                   encode_ith_record(std::move(key), *ith));
    }
    suite.push_back({std::move(ds), std::move(*net), std::move(*ith)});
  }
  return suite;
}

bool suite_cache_complete(const PrepareConfig& config,
                          const std::string& cache_dir,
                          std::size_t max_tasks) {
  for (std::size_t t = 0; t < suite_size(max_tasks); ++t) {
    const std::string stem =
        cache_stem(config, cache_dir, data::all_tasks()[t]);
    for (const char* ext : {".mann", ".ith", ".data"}) {
      if (!std::filesystem::exists(stem + ext)) {
        return false;
      }
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
