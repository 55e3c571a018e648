#include "accel/input_write.hpp"

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

}  // namespace mann::accel
