// CONTROL module: decodes the input stream, gates story admission, and
// forwards word-level commands to the INPUT & WRITE module (Fig. 1's
// "inference control" + "FIFO control" roles).
#pragma once

#include <cstdint>

#include "accel/host_link.hpp"
#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class ControlModule final : public sim::Module {
 public:
  /// With `upstream`, CONTROL is the coupled drain of that HOST_LINK
  /// (HostLinkModule::upload_window): it must drain the link's FIFO_IN
  /// and tick right after it on the same clock. Without, CONTROL keeps
  /// the plain per-module contract and ticks every model word.
  ControlModule(AcceleratorState& state, sim::Fifo<StreamWord>& fifo_in,
                sim::Fifo<InputCmd>& cmd_fifo,
                HostLinkModule* upstream = nullptr);

  void tick() override;
  /// Now when the head of FIFO_IN can move (or is illegal, so the tick
  /// throws); kNever while FIFO_IN is empty or the head is blocked on
  /// the datapath or a full CMD_FIFO, which other modules release. A
  /// model word at the head moves on every cycle, and inside the
  /// upstream link's steady-upload window that is all CONTROL does, so
  /// it reports the window's end, as HOST_LINK does.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  /// A blocked head stalls every skipped cycle. A model word at the head
  /// can only be skipped inside an upload window: CONTROL's half of each
  /// cycle is one model word seen, one BRAM write and a busy cycle (the
  /// pop itself is in FIFO_IN's stats, which HOST_LINK accounts).
  void skip(sim::Cycle cycles) override;

 private:
  /// Accounts `count` model words popped from FIFO_IN into BRAM.
  void store_model_words(std::uint64_t count) noexcept;
  /// The head word is legal but cannot move this cycle.
  [[nodiscard]] bool blocked(const StreamWord& word) const noexcept;

  AcceleratorState& state_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<InputCmd>& cmd_fifo_;
  const HostLinkModule* upstream_;
  const std::uint64_t model_words_;  ///< upload length of the program
};

}  // namespace mann::accel
