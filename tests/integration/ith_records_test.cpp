// The ITH tables the 20-task suite loads from its records
// (mann_bench_cache/, written by the suite_cache ctest fixture) against
// Algorithm 1 run afresh on each task's training split. Suite load no
// longer calibrates, so a stale, mis-keyed or mis-encoded record would
// otherwise move every ITH number without a trace.
#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace mann
