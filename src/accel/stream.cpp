#include "accel/stream.hpp"

namespace mann::accel {

std::vector<StreamWord> encode_story(const data::EncodedStory& story) {
  std::vector<StreamWord> words;
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
  return words;
}

std::vector<StreamWord> encode_workload(
    std::span<const data::EncodedStory> stories) {
  std::vector<StreamWord> words;
  words.reserve(stories.size() * 48);
  for (const data::EncodedStory& s : stories) {
    const auto sw = encode_story(s);
    words.insert(words.end(), sw.begin(), sw.end());
  }
  return words;
}

}  // namespace mann::accel
