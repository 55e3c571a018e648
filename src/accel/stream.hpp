// Host <-> FPGA stream protocol.
//
// Fig. 1: the accelerator "receives inference data and trained models from
// a host computer in the form of streams through a FIFO queue", with
// "control signals from the host embedded in the data". StreamWord is one
// 32-bit word of that stream: a control tag plus payload.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/types.hpp"

namespace mann::accel {

/// Control tags embedded in the input stream.
enum class StreamOp : std::uint8_t {
  kModelWord,      ///< one word of trained-model payload (timing only)
  kStoryStart,     ///< reset memories; begin a new inference
  kSentenceStart,  ///< flush previous sentence accumulator, open a new slot
  kContextWord,    ///< payload = word index of the current sentence
  kQuestionStart,  ///< context done; subsequent words are the question
  kQuestionWord,   ///< payload = word index of the question
  kEndOfStory,     ///< question done; run the read hops and output
};

/// One word on the wire.
struct StreamWord {
  StreamOp op = StreamOp::kModelWord;
  std::int32_t payload = 0;

  friend bool operator==(const StreamWord&, const StreamWord&) = default;
};

/// Renders every story of a workload, in order, appending each story's
/// words in place. On a cold run the trained parameters cross the PCIe
/// link first, as identical kModelWord words, so HostLinkModule streams
/// them from a count instead of rendered words.
[[nodiscard]] std::vector<StreamWord> encode_workload(
    std::span<const data::EncodedStory* const> stories);

/// One pointer per story, in order: the borrowed form of a workload that
/// encode_workload, digest_stories and Accelerator::run read.
[[nodiscard]] std::vector<const data::EncodedStory*> story_pointers(
    std::span<const data::EncodedStory> stories);

}  // namespace mann::accel
