#include "accel/input_write.hpp"

namespace mann::accel {

InputWriteModule::InputWriteModule(AcceleratorState& state,
                                   const AccelConfig& config,
                                   sim::Fifo<StreamWord>& cmd_fifo)
    : Module("INPUT_WRITE"),
      state_(state),
      timing_(config.timing),
      cmd_fifo_(cmd_fifo) {}

void InputWriteModule::flush_sentence() {
  if (!state_.sentence_open) {
    return;
  }
  // Write both accumulators into the next bank row; a full bank drops
  // its oldest slot (same recency truncation as the reference model).
  state_.store_slot(state_.acc_a, state_.acc_c);
  ops().mem_write += 2 * state_.program.embedding_dim;
  fx_clear(state_.acc_a);
  fx_clear(state_.acc_c);
  state_.sentence_open = false;
  busy_ += timing_.bram_write;
}

}  // namespace mann::accel
