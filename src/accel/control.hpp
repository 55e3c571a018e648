// CONTROL module: decodes the input stream, gates story admission, and
// forwards word-level commands to the INPUT & WRITE module (Fig. 1's
// "inference control" + "FIFO control" roles).
#pragma once

#include <cstdint>

#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class ControlModule final : public sim::Module {
 public:
  ControlModule(AcceleratorState& state, sim::Fifo<StreamWord>& fifo_in,
                sim::Fifo<InputCmd>& cmd_fifo);

  void tick() override;
  /// Now when the head of FIFO_IN can move (or is illegal, so the tick
  /// throws); kNever while FIFO_IN is empty or the head is blocked on
  /// the datapath or a full CMD_FIFO, which other modules release.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  /// A blocked head stalls every skipped cycle.
  void skip(sim::Cycle cycles) override;

 private:
  /// The head word is legal but cannot move this cycle.
  [[nodiscard]] bool blocked(const StreamWord& word) const noexcept;

  AcceleratorState& state_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<InputCmd>& cmd_fifo_;
  const std::uint64_t model_words_;  ///< upload length of the program
};

}  // namespace mann::accel
