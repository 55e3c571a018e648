// The printed claims of the two link programs, measured on the cached
// suite's qa1 exactly as bench/ablate_fifo_depth and
// bench/ablate_host_link measure them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace mann {
namespace {

constexpr std::size_t kDepths[] = {2, 4, 8, 16, 32, 64, 128};
constexpr double kWordRates[] = {5.0e5, 1.0e6, 2.0e6, 4.0e6,
                                 8.0e6, 1.6e7, 2.0e8};

/// One row of ablate_fifo_depth: qa1's test split at 100 MHz.
struct DepthRow {
  std::vector<std::int32_t> predictions;
  std::uint64_t link_rejects = 0;
  std::size_t max_occupancy = 0;
};

/// One row of ablate_host_link: qa1 at 25 and 100 MHz at one word rate.
struct RateRow {
  double t25 = 0.0;
  double t100 = 0.0;
  double efficiency100 = 0.0;  ///< FLOPS/kJ normalized to the GPU row
};

class LinkClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::vector<runtime::TaskArtifacts> suite = bench::load_suite();
    const runtime::TaskArtifacts& art = suite.front();  // qa1

    depths_ = new std::vector<DepthRow>();
    const accel::DeviceProgram program = accel::compile_model(art.model);
    for (const std::size_t depth : kDepths) {
      accel::AccelConfig cfg;
      cfg.clock_hz = 100.0e6;
      cfg.fifo_depth = depth;
      const accel::RunResult run =
          accel::Accelerator(cfg, program).run(art.dataset.test);
      DepthRow row;
      for (const accel::StoryOutcome& story : run.stories) {
        row.predictions.push_back(story.prediction);
      }
      row.link_rejects = run.fifo_in_stats.full_rejects;
      row.max_occupancy = run.queue_stats().max_occupancy;
      depths_->push_back(row);
    }

    rates_ = new std::vector<RateRow>();
    const auto gpu = runtime::measure_baseline(runtime::gpu_baseline(), art,
                                               bench::kRepetitions);
    for (const double wps : kWordRates) {
      const auto measure = [&](double mhz) {
        runtime::FpgaRunOptions options;
        options.clock_hz = mhz * 1.0e6;
        options.repetitions = bench::kRepetitions;
        accel::HostLinkConfig link;
        link.words_per_second = wps;
        options.link = link;
        return runtime::measure_fpga(art, options);
      };
      const auto r25 = measure(25.0);
      const auto r100 = measure(100.0);
      rates_->push_back(
          {r25.energy.seconds, r100.energy.seconds,
           power::normalize(r100.energy, gpu.energy).energy_efficiency});
    }
  }

  static void TearDownTestSuite() {
    delete depths_;
    delete rates_;
    depths_ = nullptr;
    rates_ = nullptr;
  }

  static std::vector<DepthRow>* depths_;
  static std::vector<RateRow>* rates_;
};

std::vector<DepthRow>* LinkClaims::depths_ = nullptr;
std::vector<RateRow>* LinkClaims::rates_ = nullptr;

TEST_F(LinkClaims, PredictionsAreTheSameAtEveryFifoDepth) {
  ASSERT_FALSE(depths_->front().predictions.empty());
  for (std::size_t i = 1; i < depths_->size(); ++i) {
    EXPECT_EQ((*depths_)[i].predictions, depths_->front().predictions)
        << "depth " << kDepths[i];
  }
}

TEST_F(LinkClaims, LinkRejectsFallAsTheFifoDeepens) {
  for (std::size_t i = 1; i < depths_->size(); ++i) {
    EXPECT_LT((*depths_)[i].link_rejects, (*depths_)[i - 1].link_rejects)
        << "depth " << kDepths[i];
  }
}

TEST_F(LinkClaims, MaxOccupancyEqualsTheDepth) {
  for (std::size_t i = 0; i < depths_->size(); ++i) {
    EXPECT_EQ((*depths_)[i].max_occupancy, kDepths[i]);
  }
}

TEST_F(LinkClaims, ClockGapWidensWithTheWordRateBelowTheClockRatio) {
  double previous = 0.0;
  for (std::size_t i = 0; i < rates_->size(); ++i) {
    const double gap = (*rates_)[i].t25 / (*rates_)[i].t100;
    EXPECT_GT(gap, previous) << kWordRates[i] << " words/s";
    EXPECT_LT(gap, 4.0) << kWordRates[i] << " words/s";
    previous = gap;
  }
}

TEST_F(LinkClaims, FlopsPerKjAt100MhzRisesWithTheWordRatePast162x) {
  for (std::size_t i = 1; i < rates_->size(); ++i) {
    EXPECT_GT((*rates_)[i].efficiency100, (*rates_)[i - 1].efficiency100)
        << kWordRates[i] << " words/s";
  }
  EXPECT_GT(rates_->back().efficiency100, 162.0);
}

}  // namespace
}  // namespace mann
