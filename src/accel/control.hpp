// CONTROL module: decodes the input stream, gates story admission, and
// forwards each story data word, as popped, to the INPUT & WRITE module
// over CMD_FIFO (Fig. 1's "inference control" + "FIFO control" roles).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class ControlModule final : public sim::Module {
 public:
  ControlModule(AcceleratorState& state, sim::Fifo<StreamWord>& fifo_in,
                sim::Fifo<StreamWord>& cmd_fifo)
      : Module("CONTROL"),
        state_(state),
        fifo_in_(fifo_in),
        cmd_fifo_(cmd_fifo),
        model_words_(state.program.model_words()) {}

  void tick();

 private:
  AcceleratorState& state_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<StreamWord>& cmd_fifo_;
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
      ++state_.model_words_seen;
      ops().mem_write += 1;  // one BRAM weight-word write
      if (state_.model_words_seen >= model_words_) {
        state_.model_loaded = true;
      }
      mark_busy();
      return;
    }
    case StreamOp::kStoryStart: {
      if (!state_.model_loaded) {
        throw std::logic_error("CONTROL: story before model load completed");
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
        throw std::logic_error("CONTROL: data word outside a story");
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

}  // namespace mann::accel
