// MEM module: content-based addressing (Eq. 1) and the soft memory read
// (Eq. 5), computed element-wise sequentially — softmax's exp and divide
// cannot be parallelized across the bank, so the pipeline walks the L
// occupied slots: dot products through the adder tree, max-subtracted exp
// through the LUT unit, normalization through the divider, then the
// attention-weighted read through the MAC array. The arithmetic is the
// value pass's (Datapath::address_and_read); this module keeps its time
// and ops, which depend only on the slot count, the sparse k and E.
#pragma once

#include <stdexcept>

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class MemModule final : public sim::Module {
 public:
  MemModule(AcceleratorState& state, const AccelConfig& config)
      : Module("MEM"),
        state_(state),
        timing_(config.timing),
        sparse_slots_(config.sparse_read_slots) {}

  void tick();

 private:
  void start();

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  const std::size_t sparse_slots_;  ///< 0 = dense softmax/read
  sim::Cycle busy_ = 0;
};

inline void MemModule::start() {
  const std::size_t slots = state_.slots;
  const std::size_t e = state_.program.embedding_dim;
  if (slots == 0) {
    throw std::logic_error("MEM: read requested with empty memory");
  }
  // Addressing: one dot product per slot, and the running max.
  ops().mac += slots * e;
  ops().mem_read += slots * e;
  ops().compare += slots;
  // Sparse selection (§VI-B): a sequential k-max pass over the scores
  // costs one compare per slot and `slots` cycles.
  std::size_t active = slots;
  sim::Cycle select_cycles = 0;
  if (sparse_slots_ > 0 && sparse_slots_ < slots) {
    active = sparse_slots_;
    ops().compare += slots;
    select_cycles = static_cast<sim::Cycle>(slots);
  }
  ops().exp += active;           // exp LUT per selected slot
  ops().add += active;           // and its running sum
  ops().div += active;           // normalization
  ops().mac += active * e;       // weighted read
  ops().mem_read += active * e;

  // Cycle cost of the sequential phases (pipelined within each).
  busy_ = timing_.dot_block(slots, e)      // addressing (all slots)
          + select_cycles                  // sparse k-max pass
          + timing_.exp_block(active)      // exp + sum
          + timing_.div_block(active)      // normalize
          + timing_.dot_block(active, e);  // weighted read
  state_.mem_request = false;
}

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
    state_.mem_done = true;
  }
}

}  // namespace mann::accel
