// INPUT & WRITE module: the three embedding lanes (emb_a, emb_c, emb_q).
//
// Exploits Eq. 2's sparsity: a sentence is embedded by fetching one
// embedding row per word index and accumulating — no dense matrix-vector
// multiply, no multipliers at all. One word per cycle (the E-wide adder
// lanes run in parallel); a sentence flush writes the accumulators into
// the MEM module's address/content banks.
#pragma once

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class InputWriteModule final : public sim::Module {
 public:
  InputWriteModule(AcceleratorState& state, const AccelConfig& config,
                   sim::Fifo<InputCmd>& cmd_fifo);

  void tick() override;
  /// A command's cycles count down without effect; the tick after the
  /// last one pops the next command, if CMD_FIFO holds one.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  void skip(sim::Cycle cycles) override;

 private:
  void process(const InputCmd& cmd);
  void flush_sentence();

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  sim::Fifo<InputCmd>& cmd_fifo_;
  sim::Cycle busy_ = 0;
};

}  // namespace mann::accel
