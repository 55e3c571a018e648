// Field-by-field comparison of two task datasets: everything a dataset
// record stores. Shared by the cache tests here and the suite-scale
// record test in tests/integration.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace mann::data {

inline std::vector<std::string> vocab_words(const Vocab& vocab) {
  std::vector<std::string> words;
  words.reserve(vocab.size());
  for (std::size_t i = 0; i < vocab.size(); ++i) {
    words.push_back(vocab.word(static_cast<std::int32_t>(i)));
  }
  return words;
}

/// Reports the first story of `split` that differs, field by field.
inline void expect_same_stories(const std::vector<EncodedStory>& expected,
                                const std::vector<EncodedStory>& actual,
                                const char* split) {
  ASSERT_EQ(expected.size(), actual.size()) << split << " split size";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const EncodedStory& e = expected[i];
    const EncodedStory& a = actual[i];
    if (e.context != a.context || e.question != a.question ||
        e.answer != a.answer) {
      EXPECT_EQ(e.context, a.context) << split << " story " << i;
      EXPECT_EQ(e.question, a.question) << split << " story " << i;
      EXPECT_EQ(e.answer, a.answer) << split << " story " << i;
      return;
    }
  }
}

inline void expect_same_dataset(const TaskDataset& expected,
                                const TaskDataset& actual) {
  EXPECT_EQ(expected.id, actual.id);
  EXPECT_EQ(vocab_words(expected.vocab), vocab_words(actual.vocab));
  expect_same_stories(expected.train, actual.train, "train");
  expect_same_stories(expected.test, actual.test, "test");
}

}  // namespace mann::data
