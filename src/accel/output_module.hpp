// OUTPUT module: the sequential maximum-inner-product search of Eq. 6.
//
// The device computes one dot product per class through the adder tree,
// tracking the running maximum, or, with inference thresholding enabled,
// compares each logit against its per-class threshold θ in silhouette
// probe order and exits early on the first hit (Algo. 1, Step 4 in
// hardware). It probes every class up to that exit, and its busy cycles
// and op counts say so.
//
// The host evaluates only the logits whose bound can still decide the
// answer. A rounded Q16.16 product has |r| = ⌊(|w·h| + 2^15) / 2^16⌋, so a
// class's logit, by fx_dot's wide sum or its saturating loop alike, is at
// most U_c = min(2^31 - 1, ⌊(L1_c·‖h‖∞ + E·2^15) / 2^16⌋), where L1_c sums
// the magnitudes of W_o's row c. An ITH probe with U_c ≤ θ_c cannot fire,
// and an argmax candidate with U_c below the running best, or equal to it
// at a later rank, cannot win (the sequential search keeps the first rank
// of the maximum, and class 0 when every logit is Fx::min()). Skipping
// those dot products leaves every answer, probe count and cycle exact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

/// L1_c = Σ_i |raw(w_o[c][i])| for every row of W_o: the per-class half
/// of OUTPUT's logit bound, computed once per program.
[[nodiscard]] std::vector<std::int64_t> row_l1_norms(const FxMatrix& w_o);

class OutputModule final : public sim::Module {
 public:
  /// Per-story observability used by the run report.
  struct Record {
    std::int32_t prediction = -1;
    std::uint64_t probes = 0;  ///< output-layer dot products performed
    bool early_exit = false;
  };

  /// `row_l1` is row_l1_norms(state.program.w_o); it must outlive the
  /// module.
  OutputModule(AcceleratorState& state, const AccelConfig& config,
               sim::Fifo<std::int32_t>& fifo_out,
               std::span<const std::int64_t> row_l1);

  void tick();
  /// The search ends on the tick that takes busy_ from 1 to 0; an idle
  /// OUTPUT acts when features are ready, and a pending answer tries
  /// FIFO_OUT every cycle (a refused push counts in the FIFO's stats).
  [[nodiscard]] std::optional<sim::Cycle> next_activity(sim::Cycle now) const;
  void skip(sim::Cycle cycles);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }

 private:
  void begin_search();
  [[nodiscard]] std::size_t probe_class(std::size_t rank) const noexcept;
  [[nodiscard]] Fx logit(std::size_t rank) const;

  AcceleratorState& state_;
  const sim::DatapathTiming timing_;
  const bool ith_enabled_;
  sim::Fifo<std::int32_t>& fifo_out_;
  const std::span<const std::int64_t> row_l1_;
  std::vector<std::int64_t> bound_;  ///< U per rank, rebuilt each search

  enum class Phase : std::uint8_t { kIdle, kProbing, kPushing };
  Phase phase_ = Phase::kIdle;
  sim::Cycle busy_ = 0;  ///< probe cycles left in the current search
  Record record_;
  std::vector<Record> records_;
};

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
      if (!fifo_out_.try_push(record_.prediction)) {
        mark_stalled();
        return;
      }
      mark_busy();
      records_.push_back(record_);
      state_.story_active = false;  // datapath free for the next story
      phase_ = Phase::kIdle;
      return;
  }
}

inline std::optional<sim::Cycle> OutputModule::next_activity(
    sim::Cycle now) const {
  switch (phase_) {
    case Phase::kIdle:
      return state_.features_ready ? now : sim::kNever;
    case Phase::kProbing:
      return now + busy_ - 1;
    case Phase::kPushing:
      break;
  }
  return now;
}

inline void OutputModule::skip(sim::Cycle cycles) {
  if (phase_ == Phase::kProbing) {
    busy_ -= cycles;
    mark_busy(cycles);
  }
}

}  // namespace mann::accel
