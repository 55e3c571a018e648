#include "accel/input_write.hpp"

#include <algorithm>

namespace mann::accel {

InputWriteModule::InputWriteModule(AcceleratorState& state,
                                   const AccelConfig& config,
                                   sim::Fifo<InputCmd>& cmd_fifo)
    : Module("INPUT_WRITE"),
      state_(state),
      timing_(config.timing),
      cmd_fifo_(cmd_fifo) {}

void InputWriteModule::flush_sentence() {
  if (!state_.sentence_open) {
    return;
  }
  // Write both accumulators into the memory banks; drop the oldest slot
  // when full (same recency truncation as the reference model).
  if (state_.mem_a.size() >= state_.program.max_memory) {
    state_.mem_a.erase(state_.mem_a.begin());
    state_.mem_c.erase(state_.mem_c.begin());
  }
  state_.mem_a.push_back(state_.acc_a);
  state_.mem_c.push_back(state_.acc_c);
  ops().mem_write += 2 * state_.program.embedding_dim;
  fx_clear(state_.acc_a);
  fx_clear(state_.acc_c);
  state_.sentence_open = false;
  busy_ += timing_.bram_write;
}

void InputWriteModule::process(const InputCmd& cmd) {
  const std::size_t e = state_.program.embedding_dim;
  switch (cmd.kind) {
    case InputCmdKind::kSentenceStart:
      flush_sentence();
      busy_ += 1;
      break;
    case InputCmdKind::kContextWord: {
      const auto w = static_cast<std::size_t>(cmd.word);
      fx_add(state_.program.emb_a.row(w), state_.acc_a);
      fx_add(state_.program.emb_c.row(w), state_.acc_c);
      state_.sentence_open = true;
      ops().add += 2 * e;
      ops().mem_read += 2 * e;
      busy_ += 1;  // one embedding column per cycle, lanes in parallel
      break;
    }
    case InputCmdKind::kQuestionStart:
      flush_sentence();
      busy_ += 1;
      break;
    case InputCmdKind::kQuestionWord: {
      const auto w = static_cast<std::size_t>(cmd.word);
      fx_add(state_.program.emb_q.row(w), state_.acc_q);
      ops().add += e;
      ops().mem_read += e;
      busy_ += 1;
      break;
    }
    case InputCmdKind::kEndOfStory:
      // Eq. 3, t = 1: the read key register takes the embedded question.
      state_.reg_k = state_.acc_q;
      state_.input_done = true;
      busy_ += 1;
      break;
  }
}

void InputWriteModule::tick() {
  if (busy_ == 0) {
    const auto cmd = cmd_fifo_.try_pop();
    if (!cmd) {
      return;  // idle
    }
    process(*cmd);
  }
  mark_busy();
  --busy_;
}

std::optional<sim::Cycle> InputWriteModule::next_activity(
    sim::Cycle now) const {
  return cmd_fifo_.empty() ? sim::kNever : now + busy_;
}

void InputWriteModule::skip(sim::Cycle cycles) {
  const sim::Cycle counted = std::min(cycles, busy_);
  busy_ -= counted;
  mark_busy(counted);
}

}  // namespace mann::accel
