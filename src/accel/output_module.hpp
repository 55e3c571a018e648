// OUTPUT module: the sequential maximum-inner-product search of Eq. 6.
//
// One dot product per class through the adder tree, tracking the running
// maximum — or, with inference thresholding enabled, comparing each logit
// against its per-class threshold θ in silhouette probe order and exiting
// early on the first hit (Algo. 1, Step 4 in hardware).
#pragma once

#include <cstdint>
#include <vector>

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class OutputModule final : public sim::Module {
 public:
  /// Per-story observability used by the run report.
  struct Record {
    std::int32_t prediction = -1;
    std::uint64_t probes = 0;  ///< output-layer dot products performed
    bool early_exit = false;
  };

  OutputModule(AcceleratorState& state, const AccelConfig& config,
               sim::Fifo<std::int32_t>& fifo_out);

  void tick() override;
  /// The search ends on the tick that takes busy_ from 1 to 0; an idle
  /// OUTPUT acts when features are ready, and a pending answer tries
  /// FIFO_OUT every cycle (a refused push counts in the FIFO's stats).
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  void skip(sim::Cycle cycles) override;

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }

 private:
  void begin_search();
  [[nodiscard]] std::size_t probe_class(std::size_t rank) const noexcept;

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  const bool ith_enabled_;
  sim::Fifo<std::int32_t>& fifo_out_;

  enum class Phase : std::uint8_t { kIdle, kProbing, kPushing };
  Phase phase_ = Phase::kIdle;
  sim::Cycle busy_ = 0;  ///< probe cycles left in the current search
  Record record_;
  std::vector<Record> records_;
};

}  // namespace mann::accel
