#include "data/dataset.hpp"

#include <algorithm>

#include "data/encoder.hpp"

namespace mann::data {

TaskDataset build_task_dataset(TaskId id, const DatasetConfig& config) {
  // Derive a task-specific stream so adding tasks never perturbs others.
  numeric::Rng rng(config.seed * std::uint64_t{1000003} +
                   static_cast<std::uint64_t>(task_number(id)));
  const auto train_raw = generate_stories(id, config.train_stories, rng);
  const auto test_raw = generate_stories(id, config.test_stories, rng);

  TaskDataset ds;
  ds.id = id;
  for (const Story& s : train_raw) {
    add_story_to_vocab(s, ds.vocab);
  }
  for (const Story& s : test_raw) {
    add_story_to_vocab(s, ds.vocab);
  }
  ds.train = encode_stories(train_raw, ds.vocab);
  ds.test = encode_stories(test_raw, ds.vocab);
  return ds;
}

std::vector<TaskDataset> build_joint_suite(const DatasetConfig& config) {
  // Pass 1: generate raw stories for every task (same per-task streams as
  // build_task_dataset) and accumulate the joint vocabulary.
  struct RawTask {
    TaskId id{};
    std::vector<Story> train;
    std::vector<Story> test;
  };
  std::vector<RawTask> raw;
  raw.reserve(all_tasks().size());
  Vocab joint;
  for (TaskId id : all_tasks()) {
    numeric::Rng rng(config.seed * std::uint64_t{1000003} +
                     static_cast<std::uint64_t>(task_number(id)));
    RawTask rt;
    rt.id = id;
    rt.train = generate_stories(id, config.train_stories, rng);
    rt.test = generate_stories(id, config.test_stories, rng);
    for (const Story& s : rt.train) {
      add_story_to_vocab(s, joint);
    }
    for (const Story& s : rt.test) {
      add_story_to_vocab(s, joint);
    }
    raw.push_back(std::move(rt));
  }
  // Pass 2: encode every task against the joint vocabulary.
  std::vector<TaskDataset> suite;
  suite.reserve(raw.size());
  for (RawTask& rt : raw) {
    TaskDataset ds;
    ds.id = rt.id;
    ds.vocab = joint;
    ds.train = encode_stories(rt.train, joint);
    ds.test = encode_stories(rt.test, joint);
    suite.push_back(std::move(ds));
  }
  return suite;
}

}  // namespace mann::data
