// SGD trainer for MemN2N with manual backpropagation.
//
// The paper runs inference on pre-trained models; we have no model zoo, so
// training lives in-repo. The backward pass is derived by hand for exactly
// the architecture of Eqs. 1-6 (no autograd dependency) and is verified
// against finite differences in tests/model/trainer_test.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "data/types.hpp"
#include "model/memn2n.hpp"
#include "numeric/random.hpp"

namespace mann::model {

/// Training hyper-parameters (MemN2N bAbI recipe at small scale).
struct TrainConfig {
  std::size_t epochs = 30;
  float learning_rate = 0.02F;
  float anneal_factor = 0.5F;      ///< lr multiplier every anneal_every
  std::size_t anneal_every = 10;   ///< epochs between anneals (0 = never)
  float max_grad_norm = 40.0F;     ///< global gradient-norm clip
  std::uint64_t shuffle_seed = 7;  ///< epoch shuffling stream

  /// Linear start (Sukhbaatar et al.): train this many initial epochs
  /// with the attention softmax removed, then switch it back on. Eases
  /// optimization on multi-supporting-fact tasks; 0 disables.
  std::size_t linear_start_epochs = 0;
};

/// Per-epoch progress record.
struct EpochStats {
  std::size_t epoch = 0;
  float mean_loss = 0.0F;
  float train_accuracy = 0.0F;
  float learning_rate = 0.0F;
};

/// Loss and parameter gradients of a single example; exposed so the
/// gradient-check test can call it directly.
struct ExampleGradients {
  float loss = 0.0F;
  bool correct = false;
  Parameters grads;
};

/// Computes cross-entropy loss and all parameter gradients for one story.
[[nodiscard]] ExampleGradients backward(const MemN2N& model,
                                        const data::EncodedStory& story);

/// Fraction of stories whose argmax prediction matches the answer, with
/// each hop's softmax over the `top_k` best slots (0 = dense; see
/// MemN2N::forward).
[[nodiscard]] float evaluate_accuracy(
    const MemN2N& model, const std::vector<data::EncodedStory>& stories,
    std::size_t top_k = 0);

/// In-place SGD training loop. Returns per-epoch stats.
std::vector<EpochStats> train(MemN2N& model,
                              const std::vector<data::EncodedStory>& stories,
                              const TrainConfig& config);

}  // namespace mann::model
