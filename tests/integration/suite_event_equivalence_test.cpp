// The closed-form device clock against the per-cycle one on the paper's
// own protocol: the trained 20-task suite (mann_bench_cache/, trained once
// by the suite_cache ctest fixture) at the four clocks of Table I, plain
// and with inference thresholding (ITH), each test split run cold (model
// upload first) and on a warm device. Every one of these runs must take
// the closed form, and every RunResult field must equal the per-cycle
// clock's. The accel tests sweep seeded configurations on small trained
// models; this holds the two clocks together on the suite's programs and
// stories.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "../accel/run_results_equal.hpp"
#include "accel/accelerator.hpp"
#include "common.hpp"

namespace mann {
namespace {

TEST(SuiteEventEquivalence, PaperProtocolMatchesPerCycle) {
  const std::vector<runtime::TaskArtifacts> suite = bench::load_suite();
  ASSERT_FALSE(suite.empty());
  std::size_t runs = 0;
  for (std::size_t task = 0; task < suite.size(); ++task) {
    const runtime::TaskArtifacts& artifacts = suite[task];
    const std::span<const data::EncodedStory> stories(artifacts.dataset.test);
    for (const bool ith : {false, true}) {
      const accel::DeviceProgram program = accel::compile_model(
          artifacts.model, ith ? &artifacts.ith : nullptr);
      for (const double mhz : {25.0, 50.0, 75.0, 100.0}) {
        accel::AccelConfig config;
        config.clock_hz = mhz * 1.0e6;
        config.ith_enabled = ith;
        const accel::Accelerator device(config, program);
        for (const bool resident : {false, true}) {
          SCOPED_TRACE("task " + std::to_string(task) + ", " +
                       std::to_string(mhz) + " MHz, ITH " +
                       (ith ? "on" : "off") + (resident ? ", warm" : ", cold"));
          EXPECT_TRUE(accel::detail::takes_closed_form(device, resident));
          accel::RunOptions options;
          options.model_resident = resident;
          const accel::RunResult closed = device.run(stories, options);
          ASSERT_EQ(closed.stories.size(), stories.size());
          accel::expect_identical(
              accel::detail::simulate_per_cycle(device, stories, resident),
              closed);
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, suite.size() * 16);
}

}  // namespace
}  // namespace mann
