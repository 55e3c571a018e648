// Table I's claims at suite scale: the 20-task suite (mann_bench_cache/,
// trained once by the suite_cache ctest fixture) measured with
// bench/common's suite helpers at the four clocks, plain and with
// inference thresholding (ITH), against the GPU row, exactly as
// bench/table1_measurements prints them.
#include <gtest/gtest.h>

#include <vector>

#include "common.hpp"

namespace mann {
namespace {

constexpr double kClocksMhz[] = {25.0, 50.0, 75.0, 100.0};

class TableOne : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::vector<runtime::TaskArtifacts> suite = bench::load_suite();
    gpu_ = new bench::SuiteMeasurement(
        bench::measure_suite_baseline(suite, runtime::gpu_baseline()));
    plain_ = new std::vector<bench::SuiteMeasurement>();
    ith_ = new std::vector<bench::SuiteMeasurement>();
    for (const double mhz : kClocksMhz) {
      runtime::FpgaRunOptions options;
      options.clock_hz = mhz * 1.0e6;
      options.repetitions = bench::kRepetitions;
      plain_->push_back(bench::measure_suite_fpga(suite, options));
      options.ith = true;
      ith_->push_back(bench::measure_suite_fpga(suite, options));
    }
  }

  static void TearDownTestSuite() {
    delete gpu_;
    delete plain_;
    delete ith_;
    gpu_ = nullptr;
    plain_ = nullptr;
    ith_ = nullptr;
  }

  /// FLOPS/kJ normalized to the GPU row (Table I's last column).
  static double efficiency(const bench::SuiteMeasurement& m) {
    return power::normalize(m.energy, gpu_->energy).energy_efficiency;
  }

  /// Fraction of the plain suite time ITH saves at clock index `i`.
  static double ith_saving(std::size_t i) {
    return ((*plain_)[i].energy.seconds - (*ith_)[i].energy.seconds) /
           (*plain_)[i].energy.seconds;
  }

  static bench::SuiteMeasurement* gpu_;
  static std::vector<bench::SuiteMeasurement>* plain_;
  static std::vector<bench::SuiteMeasurement>* ith_;
};

bench::SuiteMeasurement* TableOne::gpu_ = nullptr;
std::vector<bench::SuiteMeasurement>* TableOne::plain_ = nullptr;
std::vector<bench::SuiteMeasurement>* TableOne::ith_ = nullptr;

TEST_F(TableOne, FpgaBeatsGpuOnFlopsPerKjAtEveryClock) {
  for (std::size_t i = 0; i < plain_->size(); ++i) {
    EXPECT_GT(efficiency((*plain_)[i]), 1.0) << kClocksMhz[i] << " MHz";
    EXPECT_GT(efficiency((*ith_)[i]), 1.0) << kClocksMhz[i] << " MHz + ITH";
  }
}

TEST_F(TableOne, IthCutsTimeAndRaisesEfficiencyAtEveryClock) {
  for (std::size_t i = 0; i < plain_->size(); ++i) {
    EXPECT_LT((*ith_)[i].energy.seconds, (*plain_)[i].energy.seconds)
        << kClocksMhz[i] << " MHz";
    EXPECT_GT(efficiency((*ith_)[i]), efficiency((*plain_)[i]))
        << kClocksMhz[i] << " MHz";
  }
}

TEST_F(TableOne, IthSavesMoreTimeAtTheLowestClock) {
  EXPECT_GT(ith_saving(0), ith_saving(plain_->size() - 1));
}

TEST_F(TableOne, IthKeepsAccuracyAtRhoOne) {
  ASSERT_EQ(bench::suite_config().ith.rho, 1.0F);
  EXPECT_GE(ith_->front().accuracy, plain_->front().accuracy);
}

}  // namespace
}  // namespace mann
