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
#pragma once

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

  void tick() override;
  /// The next answer drain, credit crossing 1.0 (a push attempt, the
  /// story-latency charge) or the end of a DMA delay followed by that
  /// crossing. A synchronous host waiting on an answer is idle: its
  /// credit only cycles, and the answer arrives through FIFO_OUT. During
  /// a steady upload, the end of upload_window().
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  /// Inside upload_window() accounts HOST_LINK's half of each steady
  /// cycle (see there); elsewhere only DMA delay and credit move.
  void skip(sim::Cycle cycles) override;

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
  /// The word at position_ (position_ < words_total()).
  [[nodiscard]] StreamWord next_word() const noexcept {
    return position_ < model_words_ ? StreamWord{StreamOp::kModelWord, 0}
                                    : words_[position_ - model_words_];
  }
  /// Credit added per cycle while the word at position_ waits.
  [[nodiscard]] double current_rate() const noexcept {
    return next_word().op == StreamOp::kModelWord ? model_words_per_cycle_
                                                  : words_per_cycle_;
  }
  /// The synchronous host holds the next story until the previous
  /// answer has arrived.
  [[nodiscard]] bool awaiting_answer() const noexcept {
    return synchronous_ && next_word().op == StreamOp::kStoryStart &&
           answers_.size() < stories_sent_;
  }
  /// HOST_LINK's half of `cycles` steady upload cycles.
  void skip_upload(sim::Cycle cycles);

  std::size_t model_words_;
  std::vector<StreamWord> words_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<std::int32_t>& fifo_out_;
  double words_per_cycle_;
  double model_words_per_cycle_;
  sim::Cycle story_latency_cycles_;
  sim::Cycle result_latency_cycles_;

  std::size_t position_ = 0;
  double credit_ = 0.0;
  sim::Cycle delay_ = 0;
  bool latency_charged_ = false;
  bool synchronous_;
  bool upload_drained_ = false;  ///< couple_upload_drain() was called
  std::size_t stories_sent_ = 0;  ///< kEndOfStory words pushed
  sim::Cycle cycle_ = 0;
  sim::Cycle link_active_cycles_ = 0;
  std::vector<Answer> answers_;
};

}  // namespace mann::accel
