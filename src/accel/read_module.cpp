#include "accel/read_module.hpp"

#include <algorithm>

namespace mann::accel {

ReadModule::ReadModule(AcceleratorState& state, const AccelConfig& config)
    : Module("READ"), state_(state), timing_(config.timing) {}

bool ReadModule::hop_ready() const noexcept {
  const bool first_hop = state_.input_done && !state_.read_busy &&
                         state_.hops_done == 0 && !state_.features_ready;
  const bool next_hop = state_.read_busy &&
                        state_.hops_done < state_.program.hops &&
                        state_.hops_done > 0;
  return first_hop || next_hop;
}

void ReadModule::start_hop() {
  const std::size_t e = state_.program.embedding_dim;
  // Kick MEM off on the same key, then occupy our own MAC array with
  // W_r · k while MEM walks the memory bank.
  state_.read_busy = true;
  state_.mem_request = true;
  wrk_.assign(e, Fx{});
  for (std::size_t row = 0; row < e; ++row) {
    wrk_[row] = fx_dot(state_.program.w_r.row(row), state_.reg_k);
  }
  ops().mac += e * e;
  ops().mem_read += e * e;
  phase_ = Phase::kWrk;
  busy_ = timing_.dot_cycles(e) +
          static_cast<sim::Cycle>(e - 1) * timing_.dot_ii(e);
}

void ReadModule::on_busy_complete() {
  if (phase_ == Phase::kWrk) {
    phase_ = Phase::kWaitMem;
    return;
  }
  // Phase::kAdd drained.
  finish_hop();
}

void ReadModule::finish_hop() {
  state_.reg_h = next_h_;
  ++state_.hops_done;
  phase_ = Phase::kIdle;
  if (state_.hops_done < state_.program.hops) {
    // Eq. 3 (t > 1): feed h back as the next read key and start the next
    // hop immediately (next tick).
    state_.reg_k = state_.reg_h;
  } else {
    state_.features_ready = true;
    state_.read_busy = false;
  }
}

void ReadModule::tick() {
  if (busy_ > 0) {
    mark_busy();
    --busy_;
    if (busy_ == 0) {
      on_busy_complete();
    }
    return;
  }
  switch (phase_) {
    case Phase::kIdle:
      if (hop_ready()) {
        start_hop();
        mark_busy();
      }
      return;
    case Phase::kWaitMem: {
      if (!state_.mem_done) {
        return;  // stalled on the memory pipeline
      }
      state_.mem_done = false;
      const std::size_t e = state_.program.embedding_dim;
      next_h_ = wrk_;
      fx_add(state_.reg_r, next_h_);
      ops().add += e;
      phase_ = Phase::kAdd;
      busy_ = static_cast<sim::Cycle>(
          sim::ceil_div(e, timing_.lane_width));
      mark_busy();
      --busy_;
      if (busy_ == 0) {
        on_busy_complete();
      }
      return;
    }
    case Phase::kWrk:
    case Phase::kAdd:
      return;  // busy_ handled above
  }
}

std::optional<sim::Cycle> ReadModule::next_activity(sim::Cycle now) const {
  if (busy_ > 0) {
    return now + busy_ - 1;
  }
  switch (phase_) {
    case Phase::kIdle:
      return hop_ready() ? now : sim::kNever;
    case Phase::kWaitMem:
      return state_.mem_done ? now : sim::kNever;
    case Phase::kWrk:
    case Phase::kAdd:
      break;
  }
  return sim::kNever;
}

void ReadModule::skip(sim::Cycle cycles) {
  const sim::Cycle counted = std::min(cycles, busy_);
  busy_ -= counted;
  mark_busy(counted);
}

}  // namespace mann::accel
