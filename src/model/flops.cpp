#include "model/flops.hpp"

#include <algorithm>

namespace mann::model {

FlopBreakdown count_flops(const data::EncodedStory& story,
                          const ModelConfig& config) {
  FlopBreakdown fb;
  const std::size_t e = config.embedding_dim;
  const std::size_t v = config.vocab_size;
  const std::size_t slots = std::min(story.context.size(), config.max_memory);
  const std::size_t first = story.context.size() - slots;

  // Eq. 2: one embedding-row add per word, for both A and C memories,
  // plus the question embedding (B).
  std::size_t context_words = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    context_words += story.context[first + i].size();
  }
  fb.embedding = 2 * context_words * e + story.question.size() * e;

  // Per hop: addressing dot products (mul+add), softmax (exp + running sum
  // + divide per element), weighted read, controller matvec + vector add.
  const std::size_t per_hop_addressing = 2 * slots * e + 3 * slots;
  const std::size_t per_hop_read = 2 * slots * e;
  const std::size_t per_hop_controller = 2 * e * e + e;
  fb.addressing = config.hops * per_hop_addressing;
  fb.read = config.hops * per_hop_read;
  fb.controller = config.hops * per_hop_controller;

  // Eq. 6: one dot product plus one comparison per class.
  fb.output = v * (2 * e + 1);
  return fb;
}

}  // namespace mann::model
