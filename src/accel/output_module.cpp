#include "accel/output_module.hpp"

namespace mann::accel {

OutputModule::OutputModule(AcceleratorState& state, const AccelConfig& config,
                           sim::Fifo<std::int32_t>& fifo_out)
    : Module("OUTPUT"),
      state_(state),
      timing_(config.timing),
      ith_enabled_(config.ith_enabled && state.program.has_ith_tables()),
      fifo_out_(fifo_out) {}

std::size_t OutputModule::probe_class(std::size_t rank) const noexcept {
  if (ith_enabled_) {
    return static_cast<std::size_t>(state_.program.probe_order[rank]);
  }
  return rank;
}

void OutputModule::begin_search() {
  state_.features_ready = false;
  record_ = {};
  // Transaction semantics: the whole search runs now, probe by probe in
  // datapath order, and the module then stays busy for the probes'
  // summed latency (the first pays the tree fill, later ones pipeline).
  const std::size_t e = state_.program.embedding_dim;
  Fx best_logit = Fx::min();
  std::size_t best_class = 0;
  busy_ = 0;
  for (std::size_t rank = 0; rank < state_.program.vocab_size; ++rank) {
    const std::size_t cls = probe_class(rank);
    const Fx logit = fx_dot(state_.program.w_o.row(cls), state_.reg_h);
    ++record_.probes;
    busy_ += rank == 0 ? timing_.dot_cycles(e) : timing_.dot_ii(e);
    if (ith_enabled_ && logit > state_.program.thresholds[cls]) {
      record_.prediction = static_cast<std::int32_t>(cls);
      record_.early_exit = true;
      break;
    }
    if (logit > best_logit) {
      best_logit = logit;
      best_class = cls;
    }
  }
  if (!record_.early_exit) {
    record_.prediction = static_cast<std::int32_t>(best_class);
  }
  ops().mac += record_.probes * e;
  ops().mem_read += record_.probes * e;
  ops().compare += record_.probes;
  phase_ = Phase::kProbing;
}

void OutputModule::tick() {
  switch (phase_) {
    case Phase::kIdle:
      if (!state_.features_ready) {
        return;
      }
      begin_search();
      [[fallthrough]];
    case Phase::kProbing:
      mark_busy();
      if (--busy_ == 0) {
        phase_ = Phase::kPushing;
      }
      return;
    case Phase::kPushing:
      if (!fifo_out_.try_push(record_.prediction)) {
        mark_stalled();
        return;
      }
      mark_busy();
      records_.push_back(record_);
      state_.story_active = false;  // datapath free for the next story
      phase_ = Phase::kIdle;
      return;
  }
}

std::optional<sim::Cycle> OutputModule::next_activity(sim::Cycle now) const {
  switch (phase_) {
    case Phase::kIdle:
      return state_.features_ready ? now : sim::kNever;
    case Phase::kProbing:
      return now + busy_ - 1;
    case Phase::kPushing:
      break;
  }
  return now;
}

void OutputModule::skip(sim::Cycle cycles) {
  if (phase_ == Phase::kProbing) {
    busy_ -= cycles;
    mark_busy(cycles);
  }
}

}  // namespace mann::accel
