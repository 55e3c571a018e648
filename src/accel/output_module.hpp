// OUTPUT module: the sequential maximum-inner-product search of Eq. 6.
//
// The device computes one dot product per class through the adder tree,
// tracking the running maximum, or, with inference thresholding enabled,
// compares each logit against its per-class threshold θ in silhouette
// probe order and exits early on the first hit (Algo. 1, Step 4 in
// hardware). The search itself is the value pass's (Datapath::search);
// this module spends the story's probes on the adder tree and pushes its
// answer into FIFO_OUT.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "accel/config.hpp"
#include "accel/datapath.hpp"
#include "accel/state.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class OutputModule final : public sim::Module {
 public:
  /// `values` holds each story's values in stream order; it must outlive
  /// the module.
  OutputModule(AcceleratorState& state, const AccelConfig& config,
               sim::Fifo<std::int32_t>& fifo_out,
               std::span<const StoryValues> values)
      : Module("OUTPUT"),
        state_(state),
        timing_(config.timing),
        fifo_out_(fifo_out),
        values_(values) {}

  void tick();

 private:
  void begin_search();

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  sim::Fifo<std::int32_t>& fifo_out_;
  const std::span<const StoryValues> values_;
  std::size_t story_ = 0;  ///< index into values_ of the current story

  enum class Phase : std::uint8_t { kIdle, kProbing, kPushing };
  Phase phase_ = Phase::kIdle;
  sim::Cycle busy_ = 0;  ///< probe cycles left in the current search
};

inline void OutputModule::begin_search() {
  if (story_ == values_.size()) {
    throw std::logic_error("OUTPUT: features ready past the last story");
  }
  state_.features_ready = false;
  // Transaction semantics: the module stays busy for the probes' summed
  // latency (the first pays the tree fill, later ones pipeline).
  const std::uint64_t probes = values_[story_].output_probes;
  const std::size_t e = state_.program.embedding_dim;
  busy_ = timing_.dot_block(probes, e);
  ops().mac += probes * e;
  ops().mem_read += probes * e;
  ops().compare += probes;
  phase_ = Phase::kProbing;
}

inline void OutputModule::tick() {
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
      if (!fifo_out_.try_push(values_[story_].prediction)) {
        mark_stalled();
        return;
      }
      mark_busy();
      ++story_;
      state_.story_active = false;  // datapath free for the next story
      phase_ = Phase::kIdle;
      return;
  }
}

}  // namespace mann::accel
