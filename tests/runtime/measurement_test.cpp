#include "runtime/measurement.hpp"

#include <gtest/gtest.h>

#include <filesystem>

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
  EXPECT_GT(artifacts_->test_accuracy, 0.5F);
  // rho = 1.0: ITH accuracy within a whisker of the plain model.
  EXPECT_NEAR(artifacts_->ith_test_accuracy, artifacts_->test_accuracy,
              0.02F);
  EXPECT_GT(artifacts_->ith.active_classes(), 0U);
}

TEST_F(MeasurementFixture, BaselineRowsHaveExpectedShape) {
  const MeasurementRow cpu = measure_baseline(cpu_baseline(), *artifacts_);
  const MeasurementRow gpu = measure_baseline(gpu_baseline(), *artifacts_);
  EXPECT_EQ(cpu.config_name, "CPU");
  EXPECT_GT(cpu.energy.seconds, 0.0);
  EXPECT_GT(cpu.energy.flops, 0U);
  EXPECT_NEAR(cpu.accuracy, artifacts_->test_accuracy, 1e-5);
  EXPECT_NEAR(gpu.accuracy, artifacts_->test_accuracy, 1e-5);
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

TEST(Measurement, CachedSuitePreparationRoundTrips) {
  // Tiny configuration: first call trains and writes the cache, second
  // call loads it; both must yield byte-identical models.
  PrepareConfig cfg = default_prepare_config();
  cfg.dataset.train_stories = 12;
  cfg.dataset.test_stories = 4;
  cfg.dataset.seed = 777;
  cfg.model.embedding_dim = 6;
  cfg.train.epochs = 2;

  const std::string dir = ::testing::TempDir() + "/mann_cache_test";
  std::filesystem::remove_all(dir);
  const auto first = prepare_suite_cached(cfg, dir);
  const auto second = prepare_suite_cached(cfg, dir);
  ASSERT_EQ(first.size(), 20U);
  ASSERT_EQ(second.size(), 20U);
  for (std::size_t t = 0; t < 20; ++t) {
    EXPECT_EQ(first[t].model.params().w_o, second[t].model.params().w_o)
        << "task " << t + 1;
    EXPECT_EQ(first[t].test_accuracy, second[t].test_accuracy);
  }
  std::filesystem::remove_all(dir);
}

TEST(Measurement, TornCacheFileIsRetrained) {
  // A cached model cut short (an interrupted or concurrent writer) must
  // be retrained and replaced, not abort every later load.
  PrepareConfig cfg = default_prepare_config();
  cfg.dataset.train_stories = 12;
  cfg.dataset.test_stories = 4;
  cfg.dataset.seed = 778;
  cfg.model.embedding_dim = 6;
  cfg.train.epochs = 2;

  const std::string dir = ::testing::TempDir() + "/mann_torn_cache_test";
  std::filesystem::remove_all(dir);
  const auto first = prepare_suite_cached(cfg, dir, 2);
  std::filesystem::path torn;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find("_task2_") !=
        std::string::npos) {
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

TEST(Measurement, DefaultPrepareConfigIsPaperLike) {
  const PrepareConfig cfg = default_prepare_config();
  EXPECT_EQ(cfg.model.hops, 3U);
  EXPECT_FLOAT_EQ(cfg.ith.rho, 1.0F);
  EXPECT_GT(cfg.model.embedding_dim, 0U);
}

}  // namespace
}  // namespace mann::runtime
