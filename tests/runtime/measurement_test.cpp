#include "runtime/measurement.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/ith_eval.hpp"
#include "datasets_equal.hpp"
#include "ith_tables_equal.hpp"
#include "model/trainer.hpp"
#include "numeric/random.hpp"

namespace mann::runtime {
namespace {

/// Shared prepared task (training once per suite).
class MeasurementFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PrepareConfig cfg = default_prepare_config();
    cfg.dataset.train_stories = 450;
    cfg.dataset.test_stories = 60;
    cfg.train.epochs = 20;
    artifacts_ = new TaskArtifacts(
        prepare_task(data::TaskId::kSingleSupportingFact, cfg));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  static TaskArtifacts* artifacts_;
};

TaskArtifacts* MeasurementFixture::artifacts_ = nullptr;

TEST_F(MeasurementFixture, PrepareProducesUsableModel) {
  const float accuracy =
      model::evaluate_accuracy(artifacts_->model, artifacts_->dataset.test);
  EXPECT_GT(accuracy, 0.5F);
  // rho = 1.0: ITH accuracy within a whisker of the plain model.
  EXPECT_NEAR(core::evaluate_ith(artifacts_->model, artifacts_->ith,
                                 artifacts_->dataset.test)
                  .accuracy,
              accuracy, 0.02F);
  EXPECT_GT(artifacts_->ith.active_classes(), 0U);
}

TEST_F(MeasurementFixture, BaselineRowsHaveExpectedShape) {
  const MeasurementRow cpu = measure_baseline(cpu_baseline(), *artifacts_);
  const MeasurementRow gpu = measure_baseline(gpu_baseline(), *artifacts_);
  EXPECT_EQ(cpu.config_name, "CPU");
  EXPECT_GT(cpu.energy.seconds, 0.0);
  EXPECT_GT(cpu.energy.flops, 0U);
  const float accuracy =
      model::evaluate_accuracy(artifacts_->model, artifacts_->dataset.test);
  EXPECT_NEAR(cpu.accuracy, accuracy, 1e-5);
  EXPECT_NEAR(gpu.accuracy, accuracy, 1e-5);
}

TEST_F(MeasurementFixture, FpgaRowReflectsConfiguration) {
  FpgaRunOptions opt;
  opt.clock_hz = 50.0e6;
  opt.ith = true;
  const MeasurementRow row = measure_fpga(*artifacts_, opt);
  EXPECT_EQ(row.config_name, "FPGA 50 MHz + ITH");
  EXPECT_GT(row.energy.seconds, 0.0);
  EXPECT_GT(row.energy.watts, 10.0);
  EXPECT_LT(row.energy.watts, 25.0);
  EXPECT_GT(row.early_exit_rate, 0.0);
  EXPECT_LT(row.mean_output_probes,
            static_cast<double>(artifacts_->dataset.vocab_size()));
  EXPECT_GT(row.link_active_seconds, 0.0);
  EXPECT_LT(row.link_active_seconds, row.energy.seconds);
}

TEST_F(MeasurementFixture, FpgaBeatsBaselinesOnEnergyEfficiency) {
  // The paper's headline: FPGA FLOPS/kJ >> GPU FLOPS/kJ.
  const MeasurementRow gpu =
      measure_baseline(gpu_baseline(), *artifacts_, 100);
  FpgaRunOptions opt;
  opt.clock_hz = 100.0e6;
  opt.repetitions = 100;
  const MeasurementRow fpga = measure_fpga(*artifacts_, opt);
  EXPECT_GT(fpga.energy.flops_per_kj(), 5.0 * gpu.energy.flops_per_kj());
}

TEST_F(MeasurementFixture, RepetitionsScaleTimeAndFlops) {
  FpgaRunOptions opt;
  opt.repetitions = 1;
  const MeasurementRow once = measure_fpga(*artifacts_, opt);
  opt.repetitions = 5;
  const MeasurementRow five = measure_fpga(*artifacts_, opt);
  EXPECT_NEAR(five.energy.seconds, 5.0 * once.energy.seconds, 1e-9);
  EXPECT_EQ(five.energy.flops, 5U * once.energy.flops);
  EXPECT_NEAR(five.energy.watts, once.energy.watts, 1e-9);
}

TEST_F(MeasurementFixture, CustomLinkOverrideTakesEffect) {
  FpgaRunOptions slow_link;
  slow_link.link = accel::HostLinkConfig{.words_per_second = 2.0e5,
                                         .per_story_latency = 4.0e-6,
                                         .result_latency = 2.0e-6};
  FpgaRunOptions fast_link;
  fast_link.link = accel::HostLinkConfig{.words_per_second = 1.0e9,
                                         .per_story_latency = 0.0,
                                         .result_latency = 0.0};
  const MeasurementRow slow = measure_fpga(*artifacts_, slow_link);
  const MeasurementRow fast = measure_fpga(*artifacts_, fast_link);
  EXPECT_LT(fast.energy.seconds, slow.energy.seconds);
}

/// A suite configuration small enough to train in milliseconds.
PrepareConfig tiny_config(std::uint64_t seed) {
  PrepareConfig cfg = default_prepare_config();
  cfg.dataset.train_stories = 12;
  cfg.dataset.test_stories = 4;
  cfg.dataset.seed = seed;
  cfg.model.embedding_dim = 6;
  cfg.train.epochs = 2;
  return cfg;
}

/// tiny_config trained long enough to answer some training stories
/// correctly, so that its ITH tables depend on the model and on ρ.
PrepareConfig learning_config(std::uint64_t seed) {
  PrepareConfig cfg = tiny_config(seed);
  cfg.dataset.train_stories = 120;
  cfg.train.epochs = 10;
  return cfg;
}

/// A fresh, empty cache directory for one test.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// File name -> bytes of every file in `dir` with extension `ext`.
std::map<std::string, std::string> read_files(const std::string& dir,
                                              const std::string& ext) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) {
      files[entry.path().filename().string()] =
          read_bytes(entry.path().string());
    }
  }
  return files;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// File name -> modification time of every file in `dir`.
std::map<std::string, std::int64_t> file_stamps(const std::string& dir) {
  std::map<std::string, std::int64_t> stamps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    stamps[entry.path().filename().string()] =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            entry.last_write_time().time_since_epoch())
            .count();
  }
  return stamps;
}

/// Dates every file in `dir` a day back and returns the stamps: a write
/// (every cache write renames a new file into place) makes a file's
/// stamp differ from them.
std::map<std::string, std::int64_t> backdate_files(const std::string& dir) {
  const auto past =
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(24);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::last_write_time(entry.path(), past);
  }
  return file_stamps(dir);
}

TEST(Measurement, CachedSuitePreparationRoundTrips) {
  // Tiny configuration: first call generates, trains, calibrates and
  // writes the cache, second call loads it; both must yield
  // byte-identical models, ITH tables and datasets, and loading must
  // rewrite no file.
  const PrepareConfig cfg = tiny_config(777);
  const std::string dir = fresh_dir("mann_cache_test");
  const auto first = prepare_suite_cached(cfg, dir);
  const auto stamps = backdate_files(dir);
  const auto second = prepare_suite_cached(cfg, dir);
  ASSERT_EQ(first.size(), 20U);
  ASSERT_EQ(second.size(), 20U);
  for (std::size_t t = 0; t < 20; ++t) {
    SCOPED_TRACE("task " + std::to_string(t + 1));
    EXPECT_EQ(first[t].model.params().w_o, second[t].model.params().w_o);
    core::expect_same_tables(first[t].ith, second[t].ith);
    data::expect_same_dataset(first[t].dataset, second[t].dataset);
  }
  EXPECT_EQ(file_stamps(dir), stamps);
  std::filesystem::remove_all(dir);
}

/// The file in `dir` whose name holds `task` (e.g. "_task2_") and ends
/// in `ext`.
std::string task_file(const std::string& dir, const std::string& task,
                      const std::string& ext) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find(task) != std::string::npos &&
        entry.path().extension() == ext) {
      return entry.path().string();
    }
  }
  return {};
}

/// `bytes` with the T at `at` replaced by `value`.
template <typename T>
std::string with_value(std::string bytes, std::size_t at, T value) {
  char raw[sizeof value];
  std::memcpy(raw, &value, sizeof value);
  bytes.replace(at, sizeof value, raw, sizeof value);
  return bytes;
}

TEST(Measurement, TornCacheFileIsRetrained) {
  // A cached model cut short (an interrupted or concurrent writer), with
  // a corrupt header or with a NaN weight must be retrained and replaced,
  // not abort every later load or serve a model of the wrong shape.
  const PrepareConfig cfg = tiny_config(778);
  const std::string dir = fresh_dir("mann_torn_cache_test");
  const auto first = prepare_suite_cached(cfg, dir, 2);
  const std::string torn = task_file(dir, "_task2_", ".mann");
  ASSERT_FALSE(torn.empty());
  const std::string good = read_bytes(torn);
  // A model file is "MANN", a u32 version, vocab_size, embedding_dim,
  // hops and max_memory (u64 each), then each matrix as u64 rows, u64
  // cols and its floats: embedding_a from offset 40, embedding_c next.
  const std::size_t vocab = first[1].model.config().vocab_size;
  const std::size_t dim = first[1].model.config().embedding_dim;
  const std::size_t embedding_c = 40 + 16 + vocab * dim * sizeof(float);
  std::string short_c = with_value<std::uint64_t>(good, embedding_c, vocab - 1);
  short_c.erase(embedding_c + 16, dim * sizeof(float));
  const float nan = std::numeric_limits<float>::quiet_NaN();

  const std::vector<std::pair<const char*, std::string>> bad = {
      {"torn", good.substr(0, good.size() / 2)},
      {"1e6 x 1e6 matrix header",
       with_value<std::uint64_t>(
           with_value<std::uint64_t>(good, 40, 1'000'000), 48, 1'000'000)},
      {"embedding_dim 0", with_value<std::uint64_t>(good, 16, 0)},
      {"embedding_dim + 1", with_value<std::uint64_t>(good, 16, dim + 1)},
      {"short embedding_c", short_c},
      {"hops + 1", with_value<std::uint64_t>(
                       good, 24, first[1].model.config().hops + 1)},
      {"NaN weight", with_value(good, 40 + 16, nan)},
  };
  for (const auto& [what, bytes] : bad) {
    SCOPED_TRACE(what);
    write_file(torn, bytes);
    ASSERT_TRUE(suite_cache_complete(cfg, dir, 2));
    std::vector<TaskArtifacts> second;
    ASSERT_NO_THROW(second = prepare_suite_cached(cfg, dir, 2));
    ASSERT_EQ(second.size(), 2U);
    EXPECT_EQ(first[1].model.params().w_o, second[1].model.params().w_o);
    EXPECT_EQ(second[1].model.config().hops, first[1].model.config().hops);
    EXPECT_EQ(read_bytes(torn), good);
  }
  std::filesystem::remove_all(dir);
}

TEST(Measurement, CacheKeyCoversEveryTrainingKnob) {
  // Configurations that differ in one knob that shapes training must
  // train their own model file instead of sharing a stale one.
  const PrepareConfig base = tiny_config(783);
  const std::string dir = fresh_dir("mann_cache_key_test");
  (void)prepare_suite_cached(base, dir, 1);
  const std::vector<void (*)(PrepareConfig&)> knobs = {
      [](PrepareConfig& c) { c.train.learning_rate = 0.03F; },
      [](PrepareConfig& c) { c.train.anneal_factor = 0.25F; },
      [](PrepareConfig& c) { c.train.anneal_every = 1; },
      [](PrepareConfig& c) { c.train.max_grad_norm = 0.5F; },
      [](PrepareConfig& c) { c.train.shuffle_seed = 8; },
      [](PrepareConfig& c) { c.train.linear_start_epochs = 1; },
      [](PrepareConfig& c) { c.model.max_memory = 2; },
      [](PrepareConfig& c) { c.model.init_stddev = 0.2F; },
      [](PrepareConfig& c) { c.dataset.test_stories = 5; },
  };
  std::size_t files = 1;
  for (std::size_t k = 0; k < knobs.size(); ++k) {
    PrepareConfig cfg = base;
    knobs[k](cfg);
    (void)prepare_suite_cached(cfg, dir, 1);
    EXPECT_EQ(read_files(dir, ".mann").size(), ++files) << "knob " << k;
  }
  std::filesystem::remove_all(dir);
}

TEST(Measurement, MissingIthRecordsAreWrittenBesideUntouchedModels) {
  // Removed records of either kind come back as they were, and no other
  // file is rewritten.
  for (const std::string ext : {".ith", ".data"}) {
    SCOPED_TRACE(ext);
    const PrepareConfig cfg = tiny_config(782);
    const std::string dir = fresh_dir("mann_missing_records_test");
    (void)prepare_suite_cached(cfg, dir, 2);
    ASSERT_TRUE(suite_cache_complete(cfg, dir, 2));
    const auto models = read_files(dir, ".mann");
    const auto records = read_files(dir, ext);
    ASSERT_EQ(records.size(), 2U);
    for (const auto& [name, bytes] : records) {
      std::filesystem::remove(dir + "/" + name);
      EXPECT_FALSE(suite_cache_complete(cfg, dir, 2));
    }
    const auto stamps = backdate_files(dir);
    (void)prepare_suite_cached(cfg, dir, 2);
    EXPECT_TRUE(suite_cache_complete(cfg, dir, 2));
    EXPECT_EQ(read_files(dir, ext), records);
    EXPECT_EQ(read_files(dir, ".mann"), models);
    for (const auto& [name, stamp] : stamps) {
      EXPECT_EQ(file_stamps(dir).at(name), stamp)
          << name << " was rewritten";
    }
    std::filesystem::remove_all(dir);
  }
}

/// FNV-1a, the checksum an ITH record ends with.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// `record` (either kind) with its trailer recomputed, as a writer
/// would have sealed it.
std::string resealed(std::string record) {
  const std::size_t body = record.size() - sizeof(std::uint64_t);
  return with_value(record, body,
                    fnv1a(std::string_view(record).substr(0, body)));
}

// A dataset record's key is "MDAT", a u32 layout version, a u32
// data::kGeneratorVersion and the task number, train_stories,
// test_stories and seed (u64 each). Its body starts with the vocabulary:
// a u64 word count, then per word a u32 length and its bytes.
constexpr std::size_t kDataKeyBytes = 44;

/// Offset of the train split's u64 story count in `dataset`'s record.
std::size_t train_count_offset(const data::TaskDataset& dataset) {
  std::size_t at = kDataKeyBytes + sizeof(std::uint64_t);
  for (const std::string& word : data::vocab_words(dataset.vocab)) {
    at += sizeof(std::uint32_t) + word.size();
  }
  return at;
}

/// Offset of the first train story's i32 answer id in `dataset`'s record:
/// a story is a u32 sentence count, each sentence as a u32 word count and
/// its i32 ids, the question the same way, then the answer.
std::size_t first_answer_offset(const data::TaskDataset& dataset) {
  const data::EncodedStory& story = dataset.train.front();
  std::size_t at = train_count_offset(dataset) + sizeof(std::uint64_t) +
                   sizeof(std::uint32_t);
  for (const std::vector<std::int32_t>& sentence : story.context) {
    at += sizeof(std::uint32_t) + sentence.size() * sizeof(std::int32_t);
  }
  return at + sizeof(std::uint32_t) +
         story.question.size() * sizeof(std::int32_t);
}

TEST(Measurement, BadIthRecordsAreRecalibrated) {
  // Each bad record must be rebuilt (recalibrated or regenerated) and
  // rewritten as an empty cache would write it, without throwing and
  // without allocating for a count the record merely claims.
  const PrepareConfig cfg = tiny_config(779);
  const std::string dir = fresh_dir("mann_bad_records_test");
  const auto fresh = prepare_suite_cached(cfg, dir, 2);
  const auto ith_records = read_files(dir, ".ith");
  const auto data_records = read_files(dir, ".data");
  ASSERT_EQ(ith_records.size(), 2U);
  ASSERT_EQ(data_records.size(), 2U);
  const std::string ith_name = task_file(dir, "_task1_", ".ith");
  const std::string data_name = task_file(dir, "_task2_", ".data");
  ASSERT_FALSE(ith_name.empty());
  ASSERT_FALSE(data_name.empty());
  const std::string ith = read_bytes(ith_name);
  const std::string data = read_bytes(data_name);

  // Each record opens with a four-byte magic, a u32 layout version and a
  // u32 version of what produced its contents: core::kCalibrationVersion
  // for ITH tables, data::kGeneratorVersion for datasets.
  const std::string other_calibration = resealed(with_value<std::uint32_t>(
      ith, 8, core::kCalibrationVersion + 1));
  const std::string other_generator = resealed(with_value<std::uint32_t>(
      data, 8, static_cast<std::uint32_t>(data::kGeneratorVersion) + 1));
  const std::string huge_split = resealed(with_value<std::uint64_t>(
      data, train_count_offset(fresh[1].dataset), std::uint64_t{1} << 40));
  // A record written for one more test story: intact, but keyed for
  // another DatasetConfig.
  PrepareConfig other = cfg;
  other.dataset.test_stories += 1;
  const std::string other_dir = fresh_dir("mann_bad_records_other_test");
  (void)prepare_suite_cached(other, other_dir, 2);
  const std::string other_config =
      read_bytes(task_file(other_dir, "_task2_", ".data"));
  std::filesystem::remove_all(other_dir);

  const std::vector<std::tuple<const char*, std::string, std::string>> bad = {
      {"ith garbage", ith_name, std::string(ith.size(), '\x5a')},
      {"ith truncated", ith_name, ith.substr(0, ith.size() / 2)},
      {"ith wrong version", ith_name, other_calibration},
      {"data garbage", data_name, std::string(data.size(), '\x5a')},
      {"data truncated", data_name, data.substr(0, data.size() / 2)},
      {"data wrong generator", data_name, other_generator},
      {"task 1's data", data_name,
       read_bytes(task_file(dir, "_task1_", ".data"))},
      {"2^40 stories", data_name, huge_split},
      {"another DatasetConfig's data", data_name, other_config},
  };
  for (const auto& [what, path, bytes] : bad) {
    SCOPED_TRACE(what);
    write_file(path, bytes);
    std::vector<TaskArtifacts> loaded;
    ASSERT_NO_THROW(loaded = prepare_suite_cached(cfg, dir, 2));
    ASSERT_EQ(loaded.size(), 2U);
    for (std::size_t t = 0; t < 2; ++t) {
      core::expect_same_tables(fresh[t].ith, loaded[t].ith);
      data::expect_same_dataset(fresh[t].dataset, loaded[t].dataset);
    }
    EXPECT_EQ(read_files(dir, ".ith"), ith_records);
    EXPECT_EQ(read_files(dir, ".data"), data_records);
  }
  std::filesystem::remove_all(dir);
}

TEST(Measurement, DataRecordIsReadNotRegenerated) {
  // An answer id edited under a valid trailer loads as edited, so the
  // datasets come from the record; an id outside the vocabulary does not
  // load, and the record is regenerated.
  const PrepareConfig cfg = tiny_config(784);
  const std::string dir = fresh_dir("mann_data_record_test");
  const auto fresh = prepare_suite_cached(cfg, dir, 2);
  const std::string path = task_file(dir, "_task2_", ".data");
  ASSERT_FALSE(path.empty());
  const std::string good = read_bytes(path);
  const data::TaskDataset& dataset = fresh[1].dataset;
  const std::size_t at = first_answer_offset(dataset);
  const auto vocab = static_cast<std::int32_t>(dataset.vocab_size());
  const std::int32_t edited = (dataset.train.front().answer + 1) % vocab;

  write_file(path, resealed(with_value(good, at, edited)));
  const auto stamps = backdate_files(dir);
  std::vector<TaskArtifacts> loaded;
  ASSERT_NO_THROW(loaded = prepare_suite_cached(cfg, dir, 2));
  EXPECT_EQ(loaded[1].dataset.train.front().answer, edited);
  data::TaskDataset expected = dataset;
  expected.train.front().answer = edited;
  data::expect_same_dataset(expected, loaded[1].dataset);
  data::expect_same_dataset(fresh[0].dataset, loaded[0].dataset);
  EXPECT_EQ(file_stamps(dir), stamps);

  for (const std::int32_t outside : {vocab, -1}) {
    SCOPED_TRACE(outside);
    write_file(path, resealed(with_value(good, at, outside)));
    ASSERT_NO_THROW(loaded = prepare_suite_cached(cfg, dir, 2));
    data::expect_same_dataset(dataset, loaded[1].dataset);
    EXPECT_EQ(read_bytes(path), good);
  }
  std::filesystem::remove_all(dir);
}

/// One seeded corruption of a cache file: cut it to `at` bytes, flip
/// bits of the byte at `at`, or write 0xFF over the aligned 8-byte field
/// at `at`.
struct Corruption {
  enum class Kind { kTruncate, kFlip, kSaturate };
  Kind kind = Kind::kTruncate;
  std::size_t at = 0;
  unsigned char mask = 0;

  [[nodiscard]] std::string apply(std::string bytes) const {
    switch (kind) {
      case Kind::kTruncate:
        bytes.resize(at);
        break;
      case Kind::kFlip:
        bytes[at] = static_cast<char>(bytes[at] ^ mask);
        break;
      case Kind::kSaturate:
        bytes.replace(at, 8, 8, '\xff');
        break;
    }
    return bytes;
  }

  [[nodiscard]] std::string describe() const {
    static constexpr const char* kNames[] = {"truncate to", "flip byte",
                                             "0xFF over field"};
    return std::string(kNames[static_cast<int>(kind)]) + " " +
           std::to_string(at);
  }
};

/// The corruption cases of one file in the shape of seabrute's
/// task_generator: each get_next() yields the next case from the seed,
/// so a failure reproduces from the seed and the case index alone.
class CorruptionGenerator {
 public:
  CorruptionGenerator(std::uint64_t seed, std::size_t file_size,
                      bool truncations_only)
      : rng_(seed), size_(file_size), truncations_only_(truncations_only) {}

  Corruption get_next() {
    Corruption c;
    const std::size_t kinds = truncations_only_ ? 1 : 3;
    c.kind = static_cast<Corruption::Kind>(index_++ % kinds);
    switch (c.kind) {
      case Corruption::Kind::kTruncate:
        c.at = rng_.index(size_);
        break;
      case Corruption::Kind::kFlip:
        c.at = rng_.index(size_);
        c.mask = static_cast<unsigned char>(1 + rng_.index(255));
        break;
      case Corruption::Kind::kSaturate:
        c.at = 8 * rng_.index(size_ / 8);
        break;
    }
    return c;
  }

 private:
  numeric::Rng rng_;
  std::size_t size_;
  bool truncations_only_;
  std::size_t index_ = 0;
};

TEST(Measurement, SeededCorruptionOfCacheFilesIsRepaired) {
  // Whatever a seeded case does to one of task 2's cache files, the load
  // must not throw, must return what a clean load returns, and must put
  // the file back byte for byte (training is deterministic, so a torn
  // model is retrained to the same bytes).
  constexpr std::uint64_t kSeed = 2026;
  constexpr std::size_t kRecordCases = 60;
  constexpr std::size_t kModelCases = 12;
  const PrepareConfig cfg = tiny_config(785);
  const std::string dir = fresh_dir("mann_corruption_sweep_test");
  const auto clean = prepare_suite_cached(cfg, dir, 2);
  for (const std::string ext : {".ith", ".data", ".mann"}) {
    const std::string path = task_file(dir, "_task2_", ext);
    ASSERT_FALSE(path.empty()) << ext;
    const std::string good = read_bytes(path);
    const bool model = ext == ".mann";
    CorruptionGenerator cases(kSeed, good.size(), model);
    for (std::size_t i = 0; i < (model ? kModelCases : kRecordCases); ++i) {
      const Corruption c = cases.get_next();
      SCOPED_TRACE(ext + " seed " + std::to_string(kSeed) + " case " +
                   std::to_string(i) + ": " + c.describe());
      write_file(path, c.apply(good));
      std::vector<TaskArtifacts> loaded;
      ASSERT_NO_THROW(loaded = prepare_suite_cached(cfg, dir, 2));
      ASSERT_EQ(loaded.size(), 2U);
      for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_EQ(clean[t].model.params().w_o, loaded[t].model.params().w_o);
        core::expect_same_tables(clean[t].ith, loaded[t].ith);
        data::expect_same_dataset(clean[t].dataset, loaded[t].dataset);
      }
      ASSERT_EQ(read_bytes(path), good);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Measurement, IthRecordForAnotherRhoIsRecalibrated) {
  PrepareConfig cfg = learning_config(780);
  const std::string dir = fresh_dir("mann_rho_records_test");
  const std::string reference_dir = fresh_dir("mann_rho_reference_test");
  const auto first = prepare_suite_cached(cfg, dir, 2);
  const auto models = read_files(dir, ".mann");
  // ρ > 1 switches every threshold off, so the tables differ wherever
  // ρ = 1 found one.
  ASSERT_GT(first[1].ith.active_classes(), 0U);
  cfg.ith.rho = 1.5F;
  const auto reference = prepare_suite_cached(cfg, reference_dir, 2);
  std::vector<TaskArtifacts> loaded;
  ASSERT_NO_THROW(loaded = prepare_suite_cached(cfg, dir, 2));
  ASSERT_EQ(loaded.size(), 2U);
  for (std::size_t t = 0; t < 2; ++t) {
    core::expect_same_tables(reference[t].ith, loaded[t].ith);
  }
  EXPECT_EQ(read_files(dir, ".ith"), read_files(reference_dir, ".ith"));
  EXPECT_EQ(read_files(dir, ".mann"), models);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(reference_dir);
}

TEST(Measurement, IthRecordOfAReplacedModelIsRecalibrated) {
  // The joint vocabulary gives every task's model the same shapes, so a
  // model file overwritten by another task's model loads; only the
  // record's model checksum shows that its tables are stale.
  const PrepareConfig cfg = learning_config(781);
  const std::string dir = fresh_dir("mann_replaced_model_test");
  const auto first = prepare_suite_cached(cfg, dir, 2);
  const auto models = read_files(dir, ".mann");
  ASSERT_EQ(models.size(), 2U);
  std::string task1;
  std::string task2;
  for (const auto& [name, bytes] : models) {
    (name.find("_task1_") != std::string::npos ? task1 : task2) = name;
  }
  write_file(dir + "/" + task1, models.at(task2));

  const core::InferenceThresholding expected =
      core::InferenceThresholding::calibrate(
          first[1].model, first[0].dataset.train, cfg.ith);
  ASSERT_NE(core::float_bits(expected.silhouettes()),
            core::float_bits(first[0].ith.silhouettes()));
  std::vector<TaskArtifacts> loaded;
  ASSERT_NO_THROW(loaded = prepare_suite_cached(cfg, dir, 2));
  ASSERT_EQ(loaded.size(), 2U);
  EXPECT_EQ(loaded[0].model.params().w_o, first[1].model.params().w_o);
  core::expect_same_tables(expected, loaded[0].ith);

  // Rewritten: the next load takes the new record as it stands.
  const auto stamps = backdate_files(dir);
  const auto again = prepare_suite_cached(cfg, dir, 2);
  core::expect_same_tables(expected, again[0].ith);
  EXPECT_EQ(file_stamps(dir), stamps);
  std::filesystem::remove_all(dir);
}

TEST(Measurement, DefaultPrepareConfigIsPaperLike) {
  const PrepareConfig cfg = default_prepare_config();
  EXPECT_EQ(cfg.model.hops, 3U);
  EXPECT_FLOAT_EQ(cfg.ith.rho, 1.0F);
  EXPECT_GT(cfg.model.embedding_dim, 0U);
}

}  // namespace
}  // namespace mann::runtime
