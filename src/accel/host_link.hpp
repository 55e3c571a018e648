// Host-side PCIe link model.
//
// Streams the workload words into FIFO_IN at a wall-clock-constant rate
// (converted to words-per-cycle at the configured fabric clock — this is
// what makes high clock frequencies interface-bound, the paper's §V
// observation) and drains answers from FIFO_OUT.
//
// The model upload streams as a count: `model_words` identical kModelWord
// words precede the materialised words, so a cold run holds only its
// stories in memory.
//
// The link credit counts words in units of 1/clock_hz: tick() adds the
// word rate in words/s each cycle, and a push spends clock_hz. Clocks
// and rates are whole numbers (validate_config), so the credit is exact,
// and so is the closed form of a synchronous run (accelerator.cpp),
// which reads the same LinkTiming.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/config.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

/// The link's rates and latencies in whole units. Throws
/// std::invalid_argument for a config validate_config refuses; every
/// conversion is then exact, the latencies rounded to whole cycles.
struct LinkTiming {
  explicit LinkTiming(const AccelConfig& config);

  std::uint64_t clock_hz = 0;
  std::uint64_t words_per_second = 0;
  std::uint64_t model_words_per_second = 0;
  sim::Cycle story_latency = 0;   ///< DMA/doorbell setup per story
  sim::Cycle result_latency = 0;  ///< readback latency per answer
};

class HostLinkModule final : public sim::Module {
 public:
  struct Answer {
    std::int32_t prediction = -1;
    sim::Cycle cycle = 0;  ///< when the host observed the result
  };

  /// Streams `model_words` kModelWord words, then `words`.
  HostLinkModule(const AccelConfig& config, std::size_t model_words,
                 std::vector<StreamWord> words,
                 sim::Fifo<StreamWord>& fifo_in,
                 sim::Fifo<std::int32_t>& fifo_out);

  void tick();

  [[nodiscard]] bool all_words_sent() const noexcept {
    return position_ >= words_total();
  }
  [[nodiscard]] const std::vector<Answer>& answers() const noexcept {
    return answers_;
  }
  /// Every word on the wire, the model upload included.
  [[nodiscard]] std::size_t words_total() const noexcept {
    return model_words_ + words_.size();
  }
  /// Cycles during which the link was actively transferring or in DMA
  /// setup — the I/O-bound share of the run.
  [[nodiscard]] sim::Cycle link_active_cycles() const noexcept {
    return link_active_cycles_;
  }

 private:
  /// Words in units of 1/clock_hz. With rates at most 2^53 words/s, a
  /// run of up to 2^64 cycles cannot wrap it.
  using Credit = unsigned __int128;

  /// The word at position_ (position_ < words_total()).
  [[nodiscard]] StreamWord next_word() const noexcept {
    return position_ < model_words_ ? StreamWord{StreamOp::kModelWord, 0}
                                    : words_[position_ - model_words_];
  }
  /// Credit added per cycle while the word at position_ waits.
  [[nodiscard]] std::uint64_t current_rate() const noexcept {
    return next_word().op == StreamOp::kModelWord
               ? link_.model_words_per_second
               : link_.words_per_second;
  }
  /// The synchronous host holds the next story until the previous
  /// answer has arrived.
  [[nodiscard]] bool awaiting_answer() const noexcept {
    return synchronous_ && next_word().op == StreamOp::kStoryStart &&
           answers_.size() < stories_sent_;
  }

  std::size_t model_words_;
  std::vector<StreamWord> words_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<std::int32_t>& fifo_out_;
  const LinkTiming link_;

  std::size_t position_ = 0;
  Credit credit_ = 0;
  sim::Cycle delay_ = 0;
  bool latency_charged_ = false;
  bool synchronous_;
  std::size_t stories_sent_ = 0;  ///< kEndOfStory words pushed
  sim::Cycle cycle_ = 0;
  sim::Cycle link_active_cycles_ = 0;
  std::vector<Answer> answers_;
};

inline void HostLinkModule::tick() {
  ++cycle_;
  // Drain one answer per cycle from FIFO_OUT; the host observes it after
  // the readback latency.
  if (const auto answer = fifo_out_.try_pop()) {
    answers_.push_back({*answer, cycle_ + link_.result_latency});
  }

  if (position_ >= words_total()) {
    return;  // everything sent; only draining answers now
  }
  if (delay_ > 0) {
    // DMA/doorbell setup: the link is occupied but no words flow.
    --delay_;
    credit_ = 0;
    ++link_active_cycles_;
    mark_busy();
    return;
  }

  // Model upload is bulk DMA; the inference stream is word-granular.
  credit_ += current_rate();
  bool pushed = false;
  while (credit_ >= link_.clock_hz && position_ < words_total()) {
    const StreamWord word = next_word();
    if (word.op == StreamOp::kStoryStart) {
      // Request/response host: wait for the previous story's answer
      // before streaming the next request.
      if (awaiting_answer()) {
        credit_ = 0;
        break;
      }
      if (!latency_charged_ && link_.story_latency > 0) {
        delay_ = link_.story_latency;
        latency_charged_ = true;
        break;
      }
    }
    if (!fifo_in_.try_push(word)) {
      mark_stalled();
      break;
    }
    if (word.op == StreamOp::kStoryStart) {
      latency_charged_ = false;
    }
    if (word.op == StreamOp::kEndOfStory) {
      ++stories_sent_;
    }
    credit_ -= link_.clock_hz;
    ++position_;
    pushed = true;
  }
  if (pushed) {
    ++link_active_cycles_;
    mark_busy();
  }
}

}  // namespace mann::accel
