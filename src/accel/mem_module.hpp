// MEM module: content-based addressing (Eq. 1) and the soft memory read
// (Eq. 5), computed element-wise sequentially — softmax's exp and divide
// cannot be parallelized across the bank, so the pipeline walks the L
// occupied slots: dot products through the adder tree, max-subtracted exp
// through the LUT unit, normalization through the divider, then the
// attention-weighted read through the MAC array.
#pragma once

#include <algorithm>

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "numeric/lut.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class MemModule final : public sim::Module {
 public:
  MemModule(AcceleratorState& state, const AccelConfig& config);

  void tick();
  /// The tick that takes busy_ from 1 to 0 raises mem_done over the read
  /// vector start() wrote; an idle MEM acts on READ's request.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(sim::Cycle now) const;
  void skip(sim::Cycle cycles);

 private:
  void start();

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  const std::size_t sparse_slots_;  ///< 0 = dense softmax/read
  const numeric::ExpLut& exp_lut_;
  const numeric::ReciprocalLut& recip_lut_;

  sim::Cycle busy_ = 0;
  std::vector<Fx> scores_;             ///< start()'s scratch, reused
  std::vector<std::size_t> selected_;  ///< start()'s scratch, reused
};

inline void MemModule::tick() {
  if (busy_ == 0) {
    if (!state_.mem_request) {
      return;  // idle
    }
    start();
  }
  mark_busy();
  --busy_;
  if (busy_ == 0) {
    state_.mem_done = true;  // attention and reg_r, written at start()
  }
}

inline std::optional<sim::Cycle> MemModule::next_activity(
    sim::Cycle now) const {
  if (busy_ > 0) {
    return now + busy_ - 1;
  }
  return state_.mem_request ? now : sim::kNever;
}

inline void MemModule::skip(sim::Cycle cycles) {
  const sim::Cycle counted = std::min(cycles, busy_);
  busy_ -= counted;
  mark_busy(counted);
}

}  // namespace mann::accel
