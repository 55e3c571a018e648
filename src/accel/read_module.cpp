#include "accel/read_module.hpp"

namespace mann::accel {

ReadModule::ReadModule(AcceleratorState& state, const AccelConfig& config)
    : Module("READ"), state_(state), timing_(config.timing) {}

void ReadModule::start_hop() {
  const std::size_t e = state_.program.embedding_dim;
  // Kick MEM off on the same key, then occupy our own MAC array with
  // W_r · k while MEM walks the memory bank. W_r · k goes straight into
  // reg_h, which OUTPUT reads only after features_ready.
  state_.mem_request = true;
  for (std::size_t row = 0; row < e; ++row) {
    state_.reg_h[row] = fx_dot(state_.program.w_r.row(row), state_.reg_k);
  }
  ops().mac += e * e;
  ops().mem_read += e * e;
  phase_ = Phase::kWrk;
  busy_ = timing_.dot_cycles(e) +
          static_cast<sim::Cycle>(e - 1) * timing_.dot_ii(e);
}

void ReadModule::finish_hop() {
  ++state_.hops_done;
  phase_ = Phase::kIdle;
  if (state_.hops_done < state_.program.hops) {
    // Eq. 3 (t > 1): feed h back as the next read key and start the next
    // hop immediately (next tick).
    state_.reg_k = state_.reg_h;
  } else {
    state_.features_ready = true;
  }
}

}  // namespace mann::accel
