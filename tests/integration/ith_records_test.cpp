// What the 20-task suite loads from its records (mann_bench_cache/,
// written by the suite_cache ctest fixture) against the same things
// computed afresh: the ITH tables against Algorithm 1 on each task's
// training split, the datasets against the generator. Suite load neither
// calibrates nor generates, so a stale, mis-keyed or mis-encoded record
// would otherwise move every number without a trace.
#include <gtest/gtest.h>

#include <vector>

#include "../runtime/datasets_equal.hpp"
#include "../runtime/ith_tables_equal.hpp"
#include "common.hpp"

namespace mann {
namespace {

TEST(SuiteIthRecords, LoadedTablesEqualCalibration) {
  const core::IthConfig config = bench::suite_config().ith;
  const std::vector<runtime::TaskArtifacts> suite = bench::load_suite();
  ASSERT_EQ(suite.size(), 20U);
  for (const runtime::TaskArtifacts& art : suite) {
    SCOPED_TRACE(data::task_name(art.dataset.id));
    core::expect_same_tables(core::InferenceThresholding::calibrate(
                                 art.model, art.dataset.train, config),
                             art.ith);
  }
}

TEST(SuiteDataRecords, LoadedDatasetsEqualGeneration) {
  // The one check that catches a generator edit made without a
  // data::kGeneratorVersion bump, on a cache written before the edit.
  const std::vector<data::TaskDataset> generated =
      data::build_joint_suite(bench::suite_config().dataset);
  const std::vector<runtime::TaskArtifacts> suite = bench::load_suite();
  ASSERT_EQ(suite.size(), generated.size());
  for (std::size_t t = 0; t < suite.size(); ++t) {
    SCOPED_TRACE(data::task_name(generated[t].id));
    data::expect_same_dataset(generated[t], suite[t].dataset);
  }
}

}  // namespace
}  // namespace mann
