#include "data/encoder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mann::data {
namespace {

Story tiny_story() {
  Story s;
  s.context = {{"mary", "went", "to", "the", "kitchen"},
               {"john", "went", "to", "the", "garden"}};
  s.question = {"where", "is", "mary"};
  s.answer = "kitchen";
  return s;
}

TEST(Encoder, VocabCoversEveryToken) {
  Vocab v;
  add_story_to_vocab(tiny_story(), v);
  for (const char* w :
       {"mary", "went", "to", "the", "kitchen", "john", "garden", "where",
        "is"}) {
    EXPECT_TRUE(v.find(w).has_value()) << w;
  }
}

TEST(Encoder, EncodePreservesStructure) {
  Vocab v;
  const Story s = tiny_story();
  add_story_to_vocab(s, v);
  const EncodedStory enc = encode_story(s, v);
  ASSERT_EQ(enc.context.size(), 2U);
  EXPECT_EQ(enc.context[0].size(), 5U);
  EXPECT_EQ(enc.question.size(), 3U);
  // Round-trip each token.
  for (std::size_t i = 0; i < s.context.size(); ++i) {
    for (std::size_t j = 0; j < s.context[i].size(); ++j) {
      EXPECT_EQ(v.word(enc.context[i][j]), s.context[i][j]);
    }
  }
  EXPECT_EQ(v.word(enc.answer), "kitchen");
}

TEST(Encoder, UnknownTokenThrows) {
  Vocab v;
  v.add("a");
  const Story s{.context = {{"a"}}, .question = {"mystery"}, .answer = "a"};
  EXPECT_THROW((void)encode_story(s, v), std::out_of_range);
}

TEST(Encoder, BatchEncodingMatchesSingle) {
  Vocab v;
  const Story s = tiny_story();
  add_story_to_vocab(s, v);
  const auto batch = encode_stories({s, s}, v);
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_EQ(batch[0].answer, batch[1].answer);
  EXPECT_EQ(batch[0].context, batch[1].context);
}

}  // namespace
}  // namespace mann::data
