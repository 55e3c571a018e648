// CONTROL module: decodes the input stream, gates story admission, and
// forwards each story data word, as popped, to the INPUT & WRITE module
// over CMD_FIFO (Fig. 1's "inference control" + "FIFO control" roles).
#pragma once

#include <algorithm>
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
  /// (sim/module.hpp's coupled chain): it must drain the link's FIFO_IN,
  /// tick right after it on the same clock, and still have to store
  /// exactly the model words the link uploads (std::invalid_argument
  /// otherwise). Without, CONTROL keeps the plain per-module contract and
  /// ticks every model word.
  ControlModule(AcceleratorState& state, sim::Fifo<StreamWord>& fifo_in,
                sim::Fifo<StreamWord>& cmd_fifo,
                HostLinkModule* upstream = nullptr);

  /// Declares INPUT&WRITE, ticked right after CONTROL, as the sink of
  /// CMD_FIFO (HostLinkModule::couple_sink) and returns the upstream
  /// link, which records what its windows stream (nullptr when CONTROL
  /// has none). Throws std::invalid_argument unless `cmd_fifo` is this
  /// module's CMD_FIFO.
  const HostLinkModule* couple_sink(const sim::Fifo<StreamWord>& cmd_fifo,
                                    const sim::Cycle& countdown,
                                    sim::Cycle flush_cycles);

  void tick();
  /// Now when the head of FIFO_IN can move (or is illegal, so the tick
  /// throws); kNever while FIFO_IN is empty or the head is blocked on
  /// the datapath or a full CMD_FIFO, which other modules release. A
  /// model word at the head moves on every cycle: inside the upstream
  /// link's upload window that is all CONTROL does, so it reports the
  /// window's end, as HOST_LINK does; outside one, the coupled CONTROL
  /// pops the model words queued at the head one a cycle, and only the
  /// word behind them is due.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(sim::Cycle now) const;
  /// A blocked head stalls every skipped cycle. Inside a window CONTROL's
  /// share is what the upstream link streamed through it: one model word
  /// stored a cycle (the pops are in FIFO_IN's stats, which HOST_LINK
  /// accounts), or each story word forwarded through CMD_FIFO on its
  /// push cycle, a busy cycle each. Outside one the queued model words
  /// pop, one a cycle, for as long as the skip lasts.
  void skip(sim::Cycle cycles);

 private:
  /// Accounts `count` model words popped from FIFO_IN into BRAM.
  void store_model_words(std::uint64_t count) noexcept;
  /// The model words at the head of FIFO_IN: those CONTROL has yet to
  /// store that the coupled link has already pushed.
  [[nodiscard]] std::uint64_t queued_model_words() const noexcept {
    return model_words_ - state_.model_words_seen -
           upstream_->model_words_left();
  }
  /// The head word is legal but cannot move this cycle.
  [[nodiscard]] bool blocked(const StreamWord& word) const noexcept;
  /// Throws std::logic_error for an illegal head word.
  [[noreturn]] static void refuse(const char* what);

  AcceleratorState& state_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<StreamWord>& cmd_fifo_;
  HostLinkModule* upstream_;
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
  if (word->op != StreamOp::kModelWord || upstream_ == nullptr) {
    return now;
  }
  if (const sim::Cycle window = upstream_->upload_window(); window > 0) {
    return now + window;
  }
  const std::uint64_t queued = queued_model_words();
  return queued < fifo_in_.size() ? now + queued : sim::kNever;
}

inline void ControlModule::skip(sim::Cycle cycles) {
  if (upstream_ != nullptr) {
    const HostLinkModule::Streamed& streamed = upstream_->streamed();
    if (streamed.upload) {
      store_model_words(cycles);  // an upload window: one word a cycle
      return;
    }
    if (const std::size_t words = streamed.words.size(); words > 0) {
      cmd_fifo_.account_push_pop(words, 0);  // a story window
      mark_busy(words);
      return;
    }
  }
  const StreamWord* word = fifo_in_.peek();
  if (word == nullptr) {
    return;
  }
  if (word->op == StreamOp::kModelWord && upstream_ != nullptr) {
    const auto popped = static_cast<std::size_t>(
        std::min<std::uint64_t>(cycles, queued_model_words()));
    fifo_in_.drop(popped);
    store_model_words(popped);
    return;
  }
  if (blocked(*word)) {
    mark_stalled(cycles);
  }
}

}  // namespace mann::accel
