#include "accel/stream.hpp"

namespace mann::accel {

namespace {

void append_story(std::vector<StreamWord>& words,
                  const data::EncodedStory& story) {
  words.push_back({StreamOp::kStoryStart, 0});
  for (const auto& sentence : story.context) {
    words.push_back({StreamOp::kSentenceStart, 0});
    for (const std::int32_t w : sentence) {
      words.push_back({StreamOp::kContextWord, w});
    }
  }
  words.push_back({StreamOp::kQuestionStart, 0});
  for (const std::int32_t w : story.question) {
    words.push_back({StreamOp::kQuestionWord, w});
  }
  words.push_back({StreamOp::kEndOfStory, 0});
}

}  // namespace

std::vector<StreamWord> encode_workload(
    std::span<const data::EncodedStory* const> stories) {
  std::vector<StreamWord> words;
  words.reserve(stories.size() * 48);
  for (const data::EncodedStory* story : stories) {
    append_story(words, *story);
  }
  return words;
}

std::vector<const data::EncodedStory*> story_pointers(
    std::span<const data::EncodedStory> stories) {
  std::vector<const data::EncodedStory*> pointers;
  pointers.reserve(stories.size());
  for (const data::EncodedStory& story : stories) {
    pointers.push_back(&story);
  }
  return pointers;
}

}  // namespace mann::accel
