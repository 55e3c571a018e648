// Host-side PCIe link model.
//
// Streams the workload words into FIFO_IN at a wall-clock-constant rate
// (converted to words-per-cycle at the configured fabric clock — this is
// what makes high clock frequencies interface-bound, the paper's §V
// observation) and drains answers from FIFO_OUT.
//
// The model upload streams as a count: `model_words` identical kModelWord
// words precede the materialised words, so a cold run holds only its
// stories in memory. During the upload HOST_LINK and CONTROL form the one
// coupled pair of the event-driven clock (sim/module.hpp): see
// upload_window().
//
// The link credit counts words in units of 1/clock_hz: tick() adds the
// word rate in words/s each cycle, and a push spends clock_hz. Clocks
// and rates are whole numbers (validate_config), so the credit is exact,
// and the add on which it next reaches a word is one division away.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "accel/config.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

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
  /// The next answer drain, credit crossing a word (a push attempt, the
  /// story-latency charge) or the end of a DMA delay followed by that
  /// crossing. A synchronous host waiting on an answer is idle: its
  /// credit only cycles, and the answer arrives through FIFO_OUT. During
  /// a steady upload, the end of upload_window().
  [[nodiscard]] std::optional<sim::Cycle> next_activity(sim::Cycle now) const;
  /// Inside upload_window() accounts HOST_LINK's half of each steady
  /// cycle (see there); elsewhere only DMA delay and credit move.
  void skip(sim::Cycle cycles);

  /// Declares the coupled drain: CONTROL, ticked right after this module
  /// on the same clock, pops one word of FIFO_IN per cycle while a model
  /// word is at its head. ControlModule calls it when constructed with
  /// this link; without it no upload window ever opens, so a link driven
  /// on its own keeps the plain per-module contract.
  void couple_upload_drain(const sim::Fifo<StreamWord>& drained);

  /// Cycles of steady model upload ahead of this cycle boundary, 0 when
  /// none. Steady means, from state HOST_LINK and CONTROL both see:
  ///   - a coupled drain and a model rate above 1 word/cycle (at exactly
  ///     1 FIFO_IN never fills);
  ///   - FIFO_IN one word short of full, and at least two words deep so
  ///     that CONTROL has a head to pop at the cycle boundary;
  ///   - the next word a model word.
  /// Then every cycle HOST_LINK pushes one model word (filling FIFO_IN),
  /// refuses another push if its credit is still >= 1, and CONTROL pops
  /// one, so the FIFO contents never change. The window ends one push
  /// before the last model word: that push is ticked, since the story
  /// stream's kStoryStart logic follows it in the same tick.
  ///
  /// Both modules report now + upload_window() from next_activity and
  /// account their own half in skip(): HOST_LINK the pushes, position,
  /// busy and link-active cycles, the refused pushes as stalls, and
  /// FIFO_IN's push/pop/reject stats; CONTROL the model words seen, BRAM
  /// writes and busy cycles. Any prefix of a window is exact, so a
  /// watchdog clamp may cut it short.
  [[nodiscard]] sim::Cycle upload_window() const noexcept;

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
    return next_word().op == StreamOp::kModelWord ? model_words_per_second_
                                                  : words_per_second_;
  }
  /// The synchronous host holds the next story until the previous
  /// answer has arrived.
  [[nodiscard]] bool awaiting_answer() const noexcept {
    return synchronous_ && next_word().op == StreamOp::kStoryStart &&
           answers_.size() < stories_sent_;
  }
  /// Adds of `rate` to a credit of `from` up to the one that holds a
  /// word, that one included; kNever if none does.
  [[nodiscard]] sim::Cycle adds_to_word(Credit from,
                                        std::uint64_t rate) const noexcept {
    if (from >= clock_hz_) {
      return 1;
    }
    if (rate == 0) {
      return sim::kNever;
    }
    const std::uint64_t owed = clock_hz_ - static_cast<std::uint64_t>(from);
    return (owed + rate - 1) / rate;
  }
  /// Adds `adds` skipped ticks' credit, as tick() would.
  void advance_credit(sim::Cycle adds);
  /// HOST_LINK's half of `cycles` steady upload cycles.
  void skip_upload(sim::Cycle cycles);

  std::size_t model_words_;
  std::vector<StreamWord> words_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<std::int32_t>& fifo_out_;
  std::uint64_t clock_hz_ = 0;
  std::uint64_t words_per_second_ = 0;
  std::uint64_t model_words_per_second_ = 0;
  sim::Cycle story_latency_cycles_ = 0;
  sim::Cycle result_latency_cycles_ = 0;

  std::size_t position_ = 0;
  Credit credit_ = 0;
  sim::Cycle delay_ = 0;
  bool latency_charged_ = false;
  bool synchronous_;
  bool upload_drained_ = false;  ///< couple_upload_drain() was called
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
    answers_.push_back({*answer, cycle_ + result_latency_cycles_});
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
  while (credit_ >= clock_hz_ && position_ < words_total()) {
    const StreamWord word = next_word();
    if (word.op == StreamOp::kStoryStart) {
      // Request/response host: wait for the previous story's answer
      // before streaming the next request.
      if (awaiting_answer()) {
        credit_ = 0;
        break;
      }
      if (!latency_charged_ && story_latency_cycles_ > 0) {
        delay_ = story_latency_cycles_;
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
    credit_ -= clock_hz_;
    ++position_;
    pushed = true;
  }
  if (pushed) {
    ++link_active_cycles_;
    mark_busy();
  }
}

inline sim::Cycle HostLinkModule::upload_window() const noexcept {
  // No DMA delay can be pending: one is charged only at a story word. An
  // answer in FIFO_OUT drains beside the upload; next_activity reports it.
  if (!upload_drained_ || model_words_per_second_ <= clock_hz_ ||
      fifo_in_.capacity() < 2 || fifo_in_.size() + 1 != fifo_in_.capacity() ||
      position_ + 1 >= model_words_) {
    return 0;
  }
  return model_words_ - 1 - position_;
}

inline std::optional<sim::Cycle> HostLinkModule::next_activity(
    sim::Cycle now) const {
  if (!fifo_out_.empty()) {
    return now;  // an answer drains on this tick
  }
  if (position_ >= words_total() || awaiting_answer()) {
    return sim::kNever;  // the next answer in FIFO_OUT wakes us
  }
  if (const sim::Cycle window = upload_window(); window > 0) {
    return now + window;
  }
  // From where the DMA delay (if any) leaves the credit, the first tick
  // whose add reaches a word tries a push or charges the story latency.
  const sim::Cycle adds = adds_to_word(delay_ > 0 ? 0 : credit_,
                                       current_rate());
  if (adds == sim::kNever) {
    return sim::kNever;  // a stalled link: only the watchdog ends it
  }
  return now + delay_ + adds - 1;
}

inline void HostLinkModule::skip(sim::Cycle cycles) {
  if (upload_window() > 0) {
    skip_upload(cycles);
    return;
  }
  cycle_ += cycles;
  if (position_ >= words_total()) {
    return;
  }
  const sim::Cycle setup = std::min(cycles, delay_);
  if (setup > 0) {
    delay_ -= setup;
    credit_ = 0;
    link_active_cycles_ += setup;
    mark_busy(setup);
    cycles -= setup;
  }
  advance_credit(cycles);
}

inline void HostLinkModule::advance_credit(sim::Cycle adds) {
  // Short of a word the adds just sum. Only a host awaiting an answer can
  // reach one here, and its tick resets the credit to 0, so from then on
  // the credit repeats the period from 0.
  const std::uint64_t rate = current_rate();
  if (const sim::Cycle first = adds_to_word(credit_, rate); adds >= first) {
    adds = (adds - first) % adds_to_word(0, rate);
    credit_ = 0;
  }
  credit_ += Credit{adds} * rate;
}

}  // namespace mann::accel
