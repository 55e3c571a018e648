// CONTROL module: decodes the input stream, gates story admission, and
// forwards each story data word, as popped, to the INPUT & WRITE module
// over CMD_FIFO (Fig. 1's "inference control" + "FIFO control" roles).
#pragma once

#include <cstdint>

#include "accel/host_link.hpp"
#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class ControlModule final : public sim::Module {
 public:
  /// With `upstream`, CONTROL is the coupled drain of that HOST_LINK
  /// (HostLinkModule::upload_window): it must drain the link's FIFO_IN
  /// and tick right after it on the same clock. Without, CONTROL keeps
  /// the plain per-module contract and ticks every model word.
  ControlModule(AcceleratorState& state, sim::Fifo<StreamWord>& fifo_in,
                sim::Fifo<StreamWord>& cmd_fifo,
                HostLinkModule* upstream = nullptr);

  void tick();
  /// Now when the head of FIFO_IN can move (or is illegal, so the tick
  /// throws); kNever while FIFO_IN is empty or the head is blocked on
  /// the datapath or a full CMD_FIFO, which other modules release. A
  /// model word at the head moves on every cycle, and inside the
  /// upstream link's steady-upload window that is all CONTROL does, so
  /// it reports the window's end, as HOST_LINK does.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(sim::Cycle now) const;
  /// A blocked head stalls every skipped cycle. A model word at the head
  /// can only be skipped inside an upload window: CONTROL's half of each
  /// cycle is one model word seen, one BRAM write and a busy cycle (the
  /// pop itself is in FIFO_IN's stats, which HOST_LINK accounts).
  void skip(sim::Cycle cycles);

 private:
  /// Accounts `count` model words popped from FIFO_IN into BRAM.
  void store_model_words(std::uint64_t count) noexcept;
  /// The head word is legal but cannot move this cycle.
  [[nodiscard]] bool blocked(const StreamWord& word) const noexcept;
  /// Throws std::logic_error for an illegal head word.
  [[noreturn]] static void refuse(const char* what);

  AcceleratorState& state_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<StreamWord>& cmd_fifo_;
  const HostLinkModule* upstream_;
  const std::uint64_t model_words_;  ///< upload length of the program
};

inline void ControlModule::tick() {
  const StreamWord* word = fifo_in_.peek();
  if (word == nullptr) {
    return;  // idle: nothing on the stream
  }

  switch (word->op) {
    case StreamOp::kModelWord: {
      (void)fifo_in_.try_pop();
      store_model_words(1);
      return;
    }
    case StreamOp::kStoryStart: {
      if (!state_.model_loaded) {
        refuse("CONTROL: story before model load completed");
      }
      if (state_.story_active) {
        mark_stalled();  // previous inference still owns the datapath
        return;
      }
      (void)fifo_in_.try_pop();
      state_.begin_story();
      mark_busy();
      return;
    }
    case StreamOp::kSentenceStart:
    case StreamOp::kContextWord:
    case StreamOp::kQuestionStart:
    case StreamOp::kQuestionWord:
    case StreamOp::kEndOfStory: {
      if (!state_.story_active) {
        refuse("CONTROL: data word outside a story");
      }
      if (cmd_fifo_.full()) {
        mark_stalled();
        return;
      }
      cmd_fifo_.push(*fifo_in_.try_pop());
      mark_busy();
      return;
    }
  }
}

inline void ControlModule::store_model_words(std::uint64_t count) noexcept {
  state_.model_words_seen += count;
  ops().mem_write += count;  // one BRAM weight-word write each
  if (state_.model_words_seen >= model_words_) {
    state_.model_loaded = true;
  }
  mark_busy(count);
}

inline bool ControlModule::blocked(const StreamWord& word) const noexcept {
  switch (word.op) {
    case StreamOp::kModelWord:
      return false;
    case StreamOp::kStoryStart:
      return state_.model_loaded && state_.story_active;
    default:
      return state_.story_active && cmd_fifo_.full();
  }
}

inline std::optional<sim::Cycle> ControlModule::next_activity(
    sim::Cycle now) const {
  const StreamWord* word = fifo_in_.peek();
  if (word == nullptr || blocked(*word)) {
    return sim::kNever;
  }
  if (word->op == StreamOp::kModelWord && upstream_ != nullptr) {
    return now + upstream_->upload_window();
  }
  return now;
}

inline void ControlModule::skip(sim::Cycle cycles) {
  const StreamWord* word = fifo_in_.peek();
  if (word == nullptr) {
    return;
  }
  if (word->op == StreamOp::kModelWord) {
    store_model_words(cycles);  // an upload window: one word a cycle
    return;
  }
  if (blocked(*word)) {
    mark_stalled(cycles);
  }
}

}  // namespace mann::accel
