// Per-task dataset assembly: generation, vocabulary building, encoding
// and the train/test split.
#pragma once

#include <cstddef>
#include <vector>

#include "data/tasks.hpp"
#include "data/types.hpp"
#include "data/vocab.hpp"
#include "numeric/random.hpp"

namespace mann::data {

/// A fully-prepared task: closed vocabulary plus encoded train/test splits.
struct TaskDataset {
  TaskId id{};
  Vocab vocab;
  std::vector<EncodedStory> train;
  std::vector<EncodedStory> test;

  [[nodiscard]] std::size_t vocab_size() const noexcept {
    return vocab.size();
  }
};

/// Generation parameters. Defaults give bAbI-like proportions at a size
/// that trains in seconds per task.
struct DatasetConfig {
  std::size_t train_stories = 900;
  std::size_t test_stories = 200;
  std::uint64_t seed = 42;
};

/// Builds one task's dataset (vocab covers train + test; both splits are
/// generated from a task-and-seed-derived Rng so tasks are independent).
[[nodiscard]] TaskDataset build_task_dataset(TaskId id,
                                             const DatasetConfig& config);

/// Builds all 20 tasks over one *joint* vocabulary (the union of every
/// task's tokens). This mirrors the paper's evaluation regime where the
/// output dimension |I| is much larger than the embedding dimension |E|
/// (§IV: output-layer time dominates inference) — each per-task model then
/// carries the full output layer, and inference thresholding has the
/// many-irrelevant-classes structure it exploits.
[[nodiscard]] std::vector<TaskDataset> build_joint_suite(
    const DatasetConfig& config);

}  // namespace mann::data
