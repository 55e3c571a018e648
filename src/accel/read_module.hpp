// READ module: the recurrent controller (an RNN cell).
//
// Generates the read key for the MEM module and combines the returned
// read vector with the controller weight: h = r + W_r k (Eq. 4). The
// recurrence k^{t+1} = h^t (Eq. 3) is the blue feedback path in Fig. 1.
//
// Dataflow parallelism: W_r·k depends only on the read key, which is
// available the moment the hop starts, so the controller MAC array runs
// *concurrently* with the MEM module's addressing/softmax/read pipeline;
// only the final element-wise add of r serializes. This overlap is the
// point of the paper's DFA structure ("layer-wise parallelization and
// recurrent paths can be implemented on DFAs"). The arithmetic is the
// value pass's (Datapath::read_hops); this module keeps its time and
// ops.
#pragma once

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class ReadModule final : public sim::Module {
 public:
  ReadModule(AcceleratorState& state, const AccelConfig& config)
      : Module("READ"), state_(state), timing_(config.timing) {}

  void tick();

 private:
  enum class Phase : std::uint8_t {
    kIdle,     ///< no hop in flight
    kWrk,      ///< MAC array computing W_r · k (MEM runs in parallel)
    kWaitMem,  ///< W_r·k done, waiting for the read vector r
    kAdd,      ///< element-wise h += r
  };

  /// An idle READ starts a story's first hop, or the next hop of one.
  [[nodiscard]] bool hop_ready() const noexcept;
  void start_hop();
  void on_busy_complete();
  void finish_hop();

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  Phase phase_ = Phase::kIdle;
  sim::Cycle busy_ = 0;
};

inline bool ReadModule::hop_ready() const noexcept {
  return state_.hops_done < state_.program.hops &&
         (state_.hops_done > 0 || state_.input_done);
}

inline void ReadModule::start_hop() {
  // Kick MEM off on the same key, then occupy our own MAC array with
  // W_r · k while MEM walks the memory bank.
  const std::size_t e = state_.program.embedding_dim;
  state_.mem_request = true;
  ops().mac += e * e;
  ops().mem_read += e * e;
  phase_ = Phase::kWrk;
  busy_ = timing_.dot_block(e, e);
}

inline void ReadModule::finish_hop() {
  // Eq. 3 (t > 1) feeds h back as the next read key, and the next hop
  // starts on the next tick.
  ++state_.hops_done;
  phase_ = Phase::kIdle;
  if (state_.hops_done == state_.program.hops) {
    state_.features_ready = true;
  }
}

inline void ReadModule::on_busy_complete() {
  if (phase_ == Phase::kWrk) {
    phase_ = Phase::kWaitMem;
    return;
  }
  // Phase::kAdd drained.
  finish_hop();
}

inline void ReadModule::tick() {
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
      ops().add += e;  // Eq. 4: h = W_r k + r
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

}  // namespace mann::accel
