#include "accel/control.hpp"

#include <stdexcept>

namespace mann::accel {

ControlModule::ControlModule(AcceleratorState& state,
                             sim::Fifo<StreamWord>& fifo_in,
                             sim::Fifo<InputCmd>& cmd_fifo)
    : Module("CONTROL"),
      state_(state),
      fifo_in_(fifo_in),
      cmd_fifo_(cmd_fifo),
      model_words_(state.program.model_words()) {}

void ControlModule::tick() {
  const StreamWord* word = fifo_in_.peek();
  if (word == nullptr) {
    return;  // idle: nothing on the stream
  }

  switch (word->op) {
    case StreamOp::kModelWord: {
      (void)fifo_in_.try_pop();
      ++state_.model_words_seen;
      ++ops().mem_write;  // one BRAM weight-word write
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
      const StreamWord w = *fifo_in_.try_pop();
      InputCmd cmd;
      cmd.word = w.payload;
      switch (w.op) {
        case StreamOp::kSentenceStart:
          cmd.kind = InputCmdKind::kSentenceStart;
          break;
        case StreamOp::kContextWord:
          cmd.kind = InputCmdKind::kContextWord;
          break;
        case StreamOp::kQuestionStart:
          cmd.kind = InputCmdKind::kQuestionStart;
          break;
        case StreamOp::kQuestionWord:
          cmd.kind = InputCmdKind::kQuestionWord;
          break;
        default:
          cmd.kind = InputCmdKind::kEndOfStory;
          break;
      }
      cmd_fifo_.push(cmd);
      mark_busy();
      return;
    }
  }
}

bool ControlModule::blocked(const StreamWord& word) const noexcept {
  switch (word.op) {
    case StreamOp::kModelWord:
      return false;
    case StreamOp::kStoryStart:
      return state_.model_loaded && state_.story_active;
    default:
      return state_.story_active && cmd_fifo_.full();
  }
}

std::optional<sim::Cycle> ControlModule::next_activity(sim::Cycle now) const {
  const StreamWord* word = fifo_in_.peek();
  if (word == nullptr || blocked(*word)) {
    return sim::kNever;
  }
  return now;
}

void ControlModule::skip(sim::Cycle cycles) {
  const StreamWord* word = fifo_in_.peek();
  if (word != nullptr && blocked(*word)) {
    mark_stalled(cycles);
  }
}

}  // namespace mann::accel
