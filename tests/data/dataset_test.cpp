#include "data/dataset.hpp"

#include <gtest/gtest.h>

namespace mann::data {
namespace {

DatasetConfig small_config() {
  DatasetConfig c;
  c.train_stories = 40;
  c.test_stories = 10;
  c.seed = 5;
  return c;
}

TEST(Dataset, BuildsRequestedSplitSizes) {
  const TaskDataset ds =
      build_task_dataset(TaskId::kSingleSupportingFact, small_config());
  EXPECT_EQ(ds.train.size(), 40U);
  EXPECT_EQ(ds.test.size(), 10U);
  EXPECT_GT(ds.vocab_size(), 10U);
}

TEST(Dataset, DeterministicAcrossCalls) {
  const TaskDataset a =
      build_task_dataset(TaskId::kCounting, small_config());
  const TaskDataset b =
      build_task_dataset(TaskId::kCounting, small_config());
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].context, b.train[i].context);
    EXPECT_EQ(a.train[i].answer, b.train[i].answer);
  }
}

TEST(Dataset, SeedChangesData) {
  DatasetConfig c1 = small_config();
  DatasetConfig c2 = small_config();
  c2.seed = 6;
  const TaskDataset a = build_task_dataset(TaskId::kCounting, c1);
  const TaskDataset b = build_task_dataset(TaskId::kCounting, c2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.train.size() && !any_diff; ++i) {
    any_diff = a.train[i].context != b.train[i].context;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Dataset, JointSuiteSharesVocabulary) {
  DatasetConfig c = small_config();
  c.train_stories = 15;
  c.test_stories = 5;
  const auto suite = build_joint_suite(c);
  ASSERT_EQ(suite.size(), 20U);
  const std::size_t joint_size = suite[0].vocab_size();
  for (const TaskDataset& ds : suite) {
    EXPECT_EQ(ds.vocab_size(), joint_size);
  }
  // Joint vocabulary is strictly larger than any single task's.
  const TaskDataset solo =
      build_task_dataset(TaskId::kSingleSupportingFact, c);
  EXPECT_GT(joint_size, solo.vocab_size());
}

TEST(Dataset, JointSuiteEncodesSameStoriesAsPerTask) {
  // The underlying raw stories must be identical to the per-task build
  // (same generator streams); only the index mapping differs.
  DatasetConfig c = small_config();
  c.train_stories = 10;
  c.test_stories = 5;
  const auto suite = build_joint_suite(c);
  const TaskDataset solo = build_task_dataset(TaskId::kCounting, c);
  const TaskDataset& joint = suite[6];  // qa7 is index 6
  ASSERT_EQ(joint.id, TaskId::kCounting);
  ASSERT_EQ(joint.train.size(), solo.train.size());
  // Compare decoded answers.
  for (std::size_t i = 0; i < joint.train.size(); ++i) {
    EXPECT_EQ(joint.vocab.word(joint.train[i].answer),
              solo.vocab.word(solo.train[i].answer));
  }
}

TEST(Dataset, StoriesFitDefaultMemory) {
  // All generated stories must fit the default 50-slot memory so no
  // truncation ambiguity exists between model and accelerator.
  for (const TaskId id : all_tasks()) {
    const TaskDataset ds = build_task_dataset(id, small_config());
    for (const EncodedStory& story : ds.train) {
      EXPECT_LE(story.context.size(), 50U) << task_name(id);
    }
  }
}

}  // namespace
}  // namespace mann::data
