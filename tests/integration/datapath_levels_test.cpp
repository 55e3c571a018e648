// The value pass at every x86-64 level this host runs, held to the
// baseline's bits on the trained 20-task suite (mann_bench_cache/, trained
// once by the suite_cache ctest fixture): every story of each task's test
// split, plain and with ITH, dense and with sparse_read_slots = 2. The
// fast twin, on seeded programs, is tests/accel/datapath_levels_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/compiler.hpp"
#include "accel/datapath.hpp"
#include "common.hpp"

namespace mann {
namespace {

class SuiteDatapathLevels
    : public ::testing::TestWithParam<accel::VectorLevel> {};

TEST_P(SuiteDatapathLevels, RunLikeTheBaseline) {
  std::string levels;
  for (const accel::VectorLevel level : accel::host_vector_levels()) {
    levels += std::string(levels.empty() ? "" : " ") +
              accel::vector_level_name(level);
  }
  std::printf("value pass levels on this host: %s; checking %s\n",
              levels.c_str(), accel::vector_level_name(GetParam()));
  const std::vector<runtime::TaskArtifacts> suite = bench::load_suite();
  ASSERT_FALSE(suite.empty());
  std::size_t stories_run = 0;
  for (std::size_t task = 0; task < suite.size(); ++task) {
    const runtime::TaskArtifacts& artifacts = suite[task];
    for (const bool ith : {false, true}) {
      const accel::DeviceProgram program = accel::compile_model(
          artifacts.model, ith ? &artifacts.ith : nullptr);
      for (const std::size_t sparse : {0U, 2U}) {
        SCOPED_TRACE("task " + std::to_string(task) + ", ITH " +
                     (ith ? "on" : "off") + ", sparse " +
                     std::to_string(sparse));
        accel::AccelConfig config;
        config.ith_enabled = ith;
        config.sparse_read_slots = sparse;
        const accel::DatapathTables tables(program, config);
        accel::Datapath baseline(program, config, tables,
                                 accel::VectorLevel::kBaseline);
        accel::Datapath wide(program, config, tables, GetParam());
        std::size_t mismatches = 0;
        for (const data::EncodedStory& story : artifacts.dataset.test) {
          const accel::StoryValues want = baseline.run(story);
          const accel::StoryValues got = wide.run(story);
          mismatches += got == want ? 0 : 1;
        }
        EXPECT_EQ(mismatches, 0U)
            << "of " << artifacts.dataset.test.size() << " stories";
        stories_run += artifacts.dataset.test.size();
      }
    }
  }
  EXPECT_GT(stories_run, 0U);
}

INSTANTIATE_TEST_SUITE_P(
    Host, SuiteDatapathLevels,
    ::testing::ValuesIn(accel::host_vector_levels()),
    [](const ::testing::TestParamInfo<accel::VectorLevel>& info) {
      std::string name = accel::vector_level_name(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace mann
