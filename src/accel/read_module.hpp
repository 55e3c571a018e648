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
// recurrent paths can be implemented on DFAs").
#pragma once

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class ReadModule final : public sim::Module {
 public:
  ReadModule(AcceleratorState& state, const AccelConfig& config);

  void tick() override;
  /// The tick that takes busy_ from 1 to 0 finishes a phase; an idle
  /// READ acts when a hop can start or the read vector is ready.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  void skip(sim::Cycle cycles) override;

 private:
  enum class Phase : std::uint8_t {
    kIdle,     ///< no hop in flight
    kWrk,      ///< MAC array computing W_r · k (MEM runs in parallel)
    kWaitMem,  ///< W_r·k done, waiting for the read vector r
    kAdd,      ///< element-wise h = wrk + r
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
  FxVector wrk_;     ///< W_r · k of the in-flight hop
  FxVector next_h_;  ///< committed to reg_h when the add drains
};

}  // namespace mann::accel
