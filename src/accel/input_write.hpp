// INPUT & WRITE module: the three embedding lanes (emb_a, emb_c, emb_q).
//
// Exploits Eq. 2's sparsity: a sentence is embedded by fetching one
// embedding row per word index and accumulating — no dense matrix-vector
// multiply, no multipliers at all. One stream word per cycle from
// CMD_FIFO (the E-wide adder lanes run in parallel); a sentence flush
// writes the accumulators into the next row of the MEM module's
// address/content banks, and question words accumulate straight into
// the read key register. The sums themselves are the value pass's
// (Datapath::embed); this module keeps their time, their ops and the
// slot count.
#pragma once

#include <algorithm>

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class InputWriteModule final : public sim::Module {
 public:
  InputWriteModule(AcceleratorState& state, const AccelConfig& config,
                   sim::Fifo<StreamWord>& cmd_fifo)
      : Module("INPUT_WRITE"),
        state_(state),
        timing_(config.timing),
        cmd_fifo_(cmd_fifo) {}

  void tick();

 private:
  void process(const StreamWord& word);
  void flush_sentence();

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  sim::Fifo<StreamWord>& cmd_fifo_;
  sim::Cycle busy_ = 0;
};

inline void InputWriteModule::process(const StreamWord& word) {
  const std::size_t e = state_.program.embedding_dim;
  switch (word.op) {
    case StreamOp::kSentenceStart:
    case StreamOp::kQuestionStart:
      flush_sentence();
      break;
    case StreamOp::kContextWord:
      // One row of emb_a and one of emb_c, each added across E lanes.
      state_.sentence_open = true;
      ops().add += 2 * e;
      ops().mem_read += 2 * e;
      break;
    case StreamOp::kQuestionWord:
      // Eq. 3, t = 1: the read key register accumulates the question.
      ops().add += e;
      ops().mem_read += e;
      break;
    case StreamOp::kEndOfStory:
      state_.input_done = true;
      break;
    case StreamOp::kModelWord:
    case StreamOp::kStoryStart:
      break;  // CONTROL consumes these; they never reach CMD_FIFO
  }
  busy_ += 1;  // one word a cycle: one embedding column, lanes in parallel
}

inline void InputWriteModule::flush_sentence() {
  if (!state_.sentence_open) {
    return;
  }
  // Both accumulators go into the next bank row; a full bank drops its
  // oldest slot (same recency truncation as the reference model).
  state_.slots = std::min(state_.slots + 1, state_.program.max_memory);
  ops().mem_write += 2 * state_.program.embedding_dim;
  state_.sentence_open = false;
  busy_ += timing_.bram_write;
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

}  // namespace mann::accel
