// INPUT & WRITE module: the three embedding lanes (emb_a, emb_c, emb_q).
//
// Exploits Eq. 2's sparsity: a sentence is embedded by fetching one
// embedding row per word index and accumulating — no dense matrix-vector
// multiply, no multipliers at all. One word per cycle (the E-wide adder
// lanes run in parallel); a sentence flush writes the accumulators into
// the MEM module's address/content banks.
#pragma once

#include <algorithm>

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class InputWriteModule final : public sim::Module {
 public:
  InputWriteModule(AcceleratorState& state, const AccelConfig& config,
                   sim::Fifo<InputCmd>& cmd_fifo);

  void tick();
  /// A command's cycles count down without effect; the tick after the
  /// last one pops the next command, if CMD_FIFO holds one.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(sim::Cycle now) const;
  void skip(sim::Cycle cycles);

 private:
  void process(const InputCmd& cmd);
  void flush_sentence();

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  sim::Fifo<InputCmd>& cmd_fifo_;
  sim::Cycle busy_ = 0;
};

inline void InputWriteModule::process(const InputCmd& cmd) {
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

inline void InputWriteModule::tick() {
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

inline std::optional<sim::Cycle> InputWriteModule::next_activity(
    sim::Cycle now) const {
  return cmd_fifo_.empty() ? sim::kNever : now + busy_;
}

inline void InputWriteModule::skip(sim::Cycle cycles) {
  const sim::Cycle counted = std::min(cycles, busy_);
  busy_ -= counted;
  mark_busy(counted);
}

}  // namespace mann::accel
