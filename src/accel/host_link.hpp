// Host-side PCIe link model.
//
// Streams the workload words into FIFO_IN at a wall-clock-constant rate
// (converted to words-per-cycle at the configured fabric clock — this is
// what makes high clock frequencies interface-bound, the paper's §V
// observation) and drains answers from FIFO_OUT.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/config.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class HostLinkModule final : public sim::Module {
 public:
  struct Answer {
    std::int32_t prediction = -1;
    sim::Cycle cycle = 0;  ///< when the host observed the result
  };

  HostLinkModule(const AccelConfig& config, std::vector<StreamWord> words,
                 sim::Fifo<StreamWord>& fifo_in,
                 sim::Fifo<std::int32_t>& fifo_out);

  void tick() override;
  /// The next answer drain, credit crossing 1.0 (a push attempt, the
  /// story-latency charge) or the end of a DMA delay followed by that
  /// crossing. A synchronous host waiting on an answer is idle: its
  /// credit only cycles, and the answer arrives through FIFO_OUT.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  void skip(sim::Cycle cycles) override;

  [[nodiscard]] bool all_words_sent() const noexcept {
    return position_ >= words_.size();
  }
  [[nodiscard]] const std::vector<Answer>& answers() const noexcept {
    return answers_;
  }
  [[nodiscard]] std::size_t words_total() const noexcept {
    return words_.size();
  }
  /// Cycles during which the link was actively transferring or in DMA
  /// setup — the I/O-bound share of the run.
  [[nodiscard]] sim::Cycle link_active_cycles() const noexcept {
    return link_active_cycles_;
  }

 private:
  /// Credit added per cycle while the word at position_ waits.
  [[nodiscard]] double current_rate() const noexcept {
    return words_[position_].op == StreamOp::kModelWord
               ? model_words_per_cycle_
               : words_per_cycle_;
  }
  /// The synchronous host holds the next story until the previous
  /// answer has arrived.
  [[nodiscard]] bool awaiting_answer() const noexcept {
    return synchronous_ && words_[position_].op == StreamOp::kStoryStart &&
           answers_.size() < stories_sent_;
  }

  std::vector<StreamWord> words_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<std::int32_t>& fifo_out_;
  double words_per_cycle_;
  double model_words_per_cycle_;
  sim::Cycle story_latency_cycles_;
  sim::Cycle result_latency_cycles_;

  std::size_t position_ = 0;
  double credit_ = 0.0;
  sim::Cycle delay_ = 0;
  bool latency_charged_ = false;
  bool synchronous_;
  std::size_t stories_sent_ = 0;  ///< kEndOfStory words pushed
  sim::Cycle cycle_ = 0;
  sim::Cycle link_active_cycles_ = 0;
  std::vector<Answer> answers_;
};

}  // namespace mann::accel
