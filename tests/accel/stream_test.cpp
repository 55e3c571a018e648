#include "accel/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mann::accel {
namespace {

data::EncodedStory story() {
  data::EncodedStory s;
  s.context = {{1, 2}, {3}};
  s.question = {4, 5};
  s.answer = 6;
  return s;
}

TEST(Stream, EncodeStoryStructure) {
  const data::EncodedStory one = story();
  const data::EncodedStory* const stories[] = {&one};
  const auto words = encode_workload(stories);
  // start, (sent,1,2), (sent,3), qstart, 4, 5, end = 10 words.
  ASSERT_EQ(words.size(), 10U);
  EXPECT_EQ(words[0].op, StreamOp::kStoryStart);
  EXPECT_EQ(words[1].op, StreamOp::kSentenceStart);
  EXPECT_EQ(words[2], (StreamWord{StreamOp::kContextWord, 1}));
  EXPECT_EQ(words[3], (StreamWord{StreamOp::kContextWord, 2}));
  EXPECT_EQ(words[4].op, StreamOp::kSentenceStart);
  EXPECT_EQ(words[5], (StreamWord{StreamOp::kContextWord, 3}));
  EXPECT_EQ(words[6].op, StreamOp::kQuestionStart);
  EXPECT_EQ(words[7], (StreamWord{StreamOp::kQuestionWord, 4}));
  EXPECT_EQ(words[8], (StreamWord{StreamOp::kQuestionWord, 5}));
  EXPECT_EQ(words[9].op, StreamOp::kEndOfStory);
}

TEST(Stream, EncodeWorkloadConcatenatesStories) {
  const std::vector<data::EncodedStory> stories = {story(), story()};
  const auto words = encode_workload(story_pointers(stories));
  ASSERT_EQ(words.size(), 2U * 10U);
  const auto one = encode_workload(story_pointers({stories.data(), 1}));
  EXPECT_TRUE(std::equal(one.begin(), one.end(), words.begin()));
  EXPECT_TRUE(std::equal(one.begin(), one.end(), words.begin() + 10));
}

TEST(Stream, EmptyWorkload) {
  const auto words = encode_workload({});
  EXPECT_TRUE(words.empty());
}

}  // namespace
}  // namespace mann::accel
