// Field-by-field comparison of two device runs: every RunResult field,
// story by story and module by module. Shared by the differential tests
// of Accelerator::run against the per-cycle clock here and the
// suite-scale one in tests/integration.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "accel/accelerator.hpp"

namespace mann::accel {

inline void expect_ops_equal(const sim::OpCounts& a, const sim::OpCounts& b) {
  EXPECT_EQ(a.mac, b.mac);
  EXPECT_EQ(a.add, b.add);
  EXPECT_EQ(a.exp, b.exp);
  EXPECT_EQ(a.div, b.div);
  EXPECT_EQ(a.mem_read, b.mem_read);
  EXPECT_EQ(a.mem_write, b.mem_write);
  EXPECT_EQ(a.compare, b.compare);
}

inline void expect_fifo_equal(const sim::FifoStats& a,
                              const sim::FifoStats& b) {
  EXPECT_EQ(a.pushes, b.pushes);
  EXPECT_EQ(a.pops, b.pops);
  EXPECT_EQ(a.full_rejects, b.full_rejects);
  EXPECT_EQ(a.max_occupancy, b.max_occupancy);
}

inline void expect_stats_equal(const sim::ModuleStats& a,
                               const sim::ModuleStats& b) {
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  expect_ops_equal(a.ops, b.ops);
}

/// Every field of a RunResult, story by story and module by module.
inline void expect_identical(const RunResult& ticked, const RunResult& run) {
  EXPECT_EQ(run.total_cycles, ticked.total_cycles);
  EXPECT_EQ(run.seconds, ticked.seconds);
  EXPECT_EQ(run.stream_words, ticked.stream_words);
  EXPECT_EQ(run.link_active_cycles, ticked.link_active_cycles);
  ASSERT_EQ(run.stories.size(), ticked.stories.size());
  for (std::size_t i = 0; i < ticked.stories.size(); ++i) {
    SCOPED_TRACE("story " + std::to_string(i));
    EXPECT_EQ(run.stories[i].prediction, ticked.stories[i].prediction);
    EXPECT_EQ(run.stories[i].output_probes, ticked.stories[i].output_probes);
    EXPECT_EQ(run.stories[i].early_exit, ticked.stories[i].early_exit);
    EXPECT_EQ(run.stories[i].finish_cycle, ticked.stories[i].finish_cycle);
  }
  ASSERT_EQ(run.modules.size(), ticked.modules.size());
  for (std::size_t i = 0; i < ticked.modules.size(); ++i) {
    SCOPED_TRACE(ticked.modules[i].name);
    EXPECT_EQ(run.modules[i].name, ticked.modules[i].name);
    expect_stats_equal(run.modules[i].stats, ticked.modules[i].stats);
  }
  expect_ops_equal(run.total_ops, ticked.total_ops);
  {
    SCOPED_TRACE("FIFO_IN");
    expect_fifo_equal(run.fifo_in_stats, ticked.fifo_in_stats);
  }
  {
    SCOPED_TRACE("FIFO_OUT");
    expect_fifo_equal(run.fifo_out_stats, ticked.fifo_out_stats);
  }
}

}  // namespace mann::accel
