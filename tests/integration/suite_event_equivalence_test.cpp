// The event-driven device clock against the per-cycle one on the paper's
// own protocol: the trained 20-task suite (mann_bench_cache/, trained once
// by the suite_cache ctest fixture) at the four clocks of Table I, plain
// and with inference thresholding (ITH), each run cold (model upload
// first). The accel tests hold the two clocks together on small trained
// models; this holds them together on the suite's programs and stories.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "../accel/run_results_equal.hpp"
#include "accel/accelerator.hpp"
#include "common.hpp"

namespace mann {
namespace {

TEST(SuiteEventEquivalence, PaperProtocolMatchesPerCycle) {
  constexpr std::size_t kStories = 10;
  const std::vector<runtime::TaskArtifacts> suite = bench::load_suite();
  ASSERT_FALSE(suite.empty());
  for (std::size_t task = 0; task < suite.size(); ++task) {
    const runtime::TaskArtifacts& artifacts = suite[task];
    const std::vector<data::EncodedStory>& test = artifacts.dataset.test;
    const std::span<const data::EncodedStory> stories(
        test.data(), std::min(kStories, test.size()));
    for (const bool ith : {false, true}) {
      const accel::DeviceProgram program = accel::compile_model(
          artifacts.model, ith ? &artifacts.ith : nullptr);
      for (const double mhz : {25.0, 50.0, 75.0, 100.0}) {
        SCOPED_TRACE("task " + std::to_string(task) + ", " +
                     std::to_string(mhz) + " MHz, ITH " + (ith ? "on" : "off"));
        accel::AccelConfig config;
        config.clock_hz = mhz * 1.0e6;
        config.ith_enabled = ith;
        const accel::Accelerator device(config, program);
        const accel::RunResult events = device.run(stories);
        ASSERT_EQ(events.stories.size(), stories.size());
        accel::expect_identical(
            accel::detail::simulate_per_cycle(device, stories, false),
            events);
      }
    }
  }
}

}  // namespace
}  // namespace mann
