#include "runtime/measurement.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ith_eval.hpp"
#include "ith_tables_equal.hpp"
#include "model/trainer.hpp"

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

/// File name -> bytes of every file in `dir` with extension `ext`.
std::map<std::string, std::string> read_files(const std::string& dir,
                                              const std::string& ext) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      files[entry.path().filename().string()] = bytes.str();
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
  // Tiny configuration: first call trains, calibrates and writes the
  // cache, second call loads it; both must yield byte-identical models
  // and ITH tables, and loading must rewrite no file.
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
  }
  EXPECT_EQ(file_stamps(dir), stamps);
  std::filesystem::remove_all(dir);
}

TEST(Measurement, TornCacheFileIsRetrained) {
  // A cached model cut short (an interrupted or concurrent writer) must
  // be retrained and replaced, not abort every later load.
  const PrepareConfig cfg = tiny_config(778);
  const std::string dir = fresh_dir("mann_torn_cache_test");
  const auto first = prepare_suite_cached(cfg, dir, 2);
  std::filesystem::path torn;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find("_task2_") !=
            std::string::npos &&
        entry.path().extension() == ".mann") {
      torn = entry.path();
    }
  }
  ASSERT_FALSE(torn.empty());
  const std::uintmax_t size = std::filesystem::file_size(torn);
  std::filesystem::resize_file(torn, size / 2);
  ASSERT_TRUE(suite_cache_complete(cfg, dir, 2));

  const auto second = prepare_suite_cached(cfg, dir, 2);
  ASSERT_EQ(second.size(), 2U);
  EXPECT_EQ(first[1].model.params().w_o, second[1].model.params().w_o);
  EXPECT_EQ(std::filesystem::file_size(torn), size);
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
  const PrepareConfig cfg = tiny_config(782);
  const std::string dir = fresh_dir("mann_missing_records_test");
  (void)prepare_suite_cached(cfg, dir, 2);
  ASSERT_TRUE(suite_cache_complete(cfg, dir, 2));
  const auto models = read_files(dir, ".mann");
  const auto records = read_files(dir, ".ith");
  ASSERT_EQ(records.size(), 2U);
  for (const auto& [name, bytes] : records) {
    std::filesystem::remove(dir + "/" + name);
    EXPECT_FALSE(suite_cache_complete(cfg, dir, 2));
  }
  const auto stamps = backdate_files(dir);
  (void)prepare_suite_cached(cfg, dir, 2);
  EXPECT_TRUE(suite_cache_complete(cfg, dir, 2));
  EXPECT_EQ(read_files(dir, ".ith"), records);
  EXPECT_EQ(read_files(dir, ".mann"), models);
  for (const auto& [name, stamp] : stamps) {
    EXPECT_EQ(file_stamps(dir).at(name), stamp) << name << " was rewritten";
  }
  std::filesystem::remove_all(dir);
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

TEST(Measurement, BadIthRecordsAreRecalibrated) {
  // Each bad record must be recalibrated and rewritten as an empty cache
  // would write it, without throwing.
  const PrepareConfig cfg = tiny_config(779);
  const std::string dir = fresh_dir("mann_bad_records_test");
  const auto fresh = prepare_suite_cached(cfg, dir, 2);
  const auto records = read_files(dir, ".ith");
  ASSERT_EQ(records.size(), 2U);
  const auto& [name, good] = *records.begin();

  // A record written under another calibration version: it opens with
  // "MITH", a u32 layout version and a u32 core::kCalibrationVersion,
  // and ends with an FNV-1a of everything before it.
  std::string other_version = good;
  const std::uint32_t version = core::kCalibrationVersion + 1;
  std::memcpy(other_version.data() + 8, &version, sizeof version);
  const std::size_t body = other_version.size() - sizeof(std::uint64_t);
  const std::uint64_t checksum =
      fnv1a(std::string_view(other_version).substr(0, body));
  std::memcpy(other_version.data() + body, &checksum, sizeof checksum);

  const std::vector<std::pair<const char*, std::string>> bad = {
      {"garbage", std::string(good.size(), '\x5a')},
      {"truncated", good.substr(0, good.size() / 2)},
      {"wrong version", other_version},
  };
  for (const auto& [what, bytes] : bad) {
    SCOPED_TRACE(what);
    write_file(dir + "/" + name, bytes);
    std::vector<TaskArtifacts> loaded;
    ASSERT_NO_THROW(loaded = prepare_suite_cached(cfg, dir, 2));
    ASSERT_EQ(loaded.size(), 2U);
    for (std::size_t t = 0; t < 2; ++t) {
      core::expect_same_tables(fresh[t].ith, loaded[t].ith);
    }
    EXPECT_EQ(read_files(dir, ".ith"), records);
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
