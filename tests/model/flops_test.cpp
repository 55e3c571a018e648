#include "model/flops.hpp"

#include <gtest/gtest.h>

namespace mann::model {
namespace {

ModelConfig config_for_flops() {
  ModelConfig c;
  c.vocab_size = 100;
  c.embedding_dim = 20;
  c.hops = 3;
  c.max_memory = 50;
  return c;
}

data::EncodedStory story_for_flops() {
  data::EncodedStory s;
  s.context = {{1, 2, 3}, {4, 5}};  // 5 context words, 2 slots
  s.question = {6, 7};              // 2 question words
  s.answer = 8;
  return s;
}

TEST(Flops, EmbeddingCountsWordAccumulates) {
  const auto fb = count_flops(story_for_flops(), config_for_flops());
  // 2*(5 words)*E + (2 question words)*E = 10*20 + 2*20*... -> 240.
  EXPECT_EQ(fb.embedding, 2U * 5U * 20U + 2U * 20U);
}

TEST(Flops, OutputScalesWithVocab) {
  const auto fb = count_flops(story_for_flops(), config_for_flops());
  EXPECT_EQ(fb.output, 100U * (2U * 20U + 1U));
}

TEST(Flops, HopsScaleMemoryTerms) {
  ModelConfig one_hop = config_for_flops();
  one_hop.hops = 1;
  const auto fb3 = count_flops(story_for_flops(), config_for_flops());
  const auto fb1 = count_flops(story_for_flops(), one_hop);
  EXPECT_EQ(fb3.addressing, 3U * fb1.addressing);
  EXPECT_EQ(fb3.read, 3U * fb1.read);
  EXPECT_EQ(fb3.controller, 3U * fb1.controller);
  EXPECT_EQ(fb3.embedding, fb1.embedding);
  EXPECT_EQ(fb3.output, fb1.output);
}

TEST(Flops, MemoryTruncationCapsSlots) {
  ModelConfig c = config_for_flops();
  c.max_memory = 1;
  data::EncodedStory s = story_for_flops();
  const auto fb = count_flops(s, c);
  // Only the last sentence (2 words) is in memory.
  EXPECT_EQ(fb.embedding, 2U * 2U * 20U + 2U * 20U);
  // addressing per hop: 2*L*E + 3L with L = 1.
  EXPECT_EQ(fb.addressing, 3U * (2U * 1U * 20U + 3U));
}

TEST(Flops, TotalIsSumOfParts) {
  const auto fb = count_flops(story_for_flops(), config_for_flops());
  EXPECT_EQ(fb.total(), fb.embedding + fb.addressing + fb.read +
                            fb.controller + fb.output);
}

}  // namespace
}  // namespace mann::model
