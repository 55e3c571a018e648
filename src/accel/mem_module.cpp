#include "accel/mem_module.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace mann::accel {
namespace {

// The function-unit tables depend only on their default configuration,
// so every MEM module reads one shared copy instead of rebuilding (and
// error-probing) them for each simulation.
const numeric::ExpLut& shared_exp_lut() {
  static const numeric::ExpLut lut;
  return lut;
}

const numeric::ReciprocalLut& shared_recip_lut() {
  static const numeric::ReciprocalLut lut;
  return lut;
}

}  // namespace

MemModule::MemModule(AcceleratorState& state, const AccelConfig& config)
    : Module("MEM"),
      state_(state),
      timing_(config.timing),
      sparse_slots_(config.sparse_read_slots),
      exp_lut_(shared_exp_lut()),
      recip_lut_(shared_recip_lut()) {}

void MemModule::start() {
  const std::size_t slots = state_.slots;
  const std::size_t e = state_.program.embedding_dim;
  if (slots == 0) {
    throw std::logic_error("MEM: read requested with empty memory");
  }

  // Phase 1 — addressing dot products s_i = M_a[i] · k, tracking the max
  // for softmax stability (the running-max register next to the adder
  // tree in Fig. 1's address path). Every slot is scored even in sparse
  // mode — content addressing cannot skip candidates.
  std::vector<Fx>& scores = scores_;
  scores.resize(slots);
  Fx max_score = Fx::min();
  for (std::size_t i = 0; i < slots; ++i) {
    scores[i] = fx_dot(state_.mem_a.row(i), state_.reg_k);
    max_score = std::max(max_score, scores[i]);
  }
  ops().mac += slots * e;
  ops().mem_read += slots * e;
  ops().compare += slots;

  // Sparse selection (§VI-B): keep only the best k slots for the
  // exp/divide/read phases. A sequential k-max pass costs one compare per
  // slot and `slots` cycles.
  std::vector<std::size_t>& selected = selected_;
  selected.resize(slots);
  std::iota(selected.begin(), selected.end(), std::size_t{0});
  sim::Cycle select_cycles = 0;
  if (sparse_slots_ > 0 && sparse_slots_ < slots) {
    std::stable_sort(selected.begin(), selected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[a] > scores[b];
                     });
    selected.resize(sparse_slots_);
    ops().compare += slots;
    select_cycles = static_cast<sim::Cycle>(slots);
  }
  const std::size_t active = selected.size();

  // Phase 2 — exp LUT per selected element plus running sum. Attention
  // and the read vector are written in place: READ waits for mem_done.
  std::vector<Fx>& attention = state_.attention;
  attention.assign(slots, Fx{});
  Fx sum;
  for (const std::size_t i : selected) {
    const float x = (scores[i] - max_score).to_float();
    attention[i] = Fx::from_float(exp_lut_(x));
    sum += attention[i];
  }
  ops().exp += active;
  ops().add += active;

  // Phase 3 — normalization through the divider (reciprocal + multiply).
  const Fx inv_sum = Fx::from_float(recip_lut_(sum.to_float()));
  for (const std::size_t i : selected) {
    attention[i] *= inv_sum;
  }
  ops().div += active;

  // Phase 4 — soft read r = Σ a_i · M_c[i] through the MAC array.
  fx_clear(state_.reg_r);
  for (const std::size_t i : selected) {
    fx_axpy(attention[i], state_.mem_c.row(i), state_.reg_r);
  }
  ops().mac += active * e;
  ops().mem_read += active * e;

  // Cycle cost of the sequential phases (pipelined within each).
  const auto block = [&](std::size_t n) {
    return timing_.dot_cycles(e) +
           static_cast<sim::Cycle>(n - 1) * timing_.dot_ii(e);
  };
  busy_ = block(slots)                 // addressing (all slots)
          + select_cycles              // sparse k-max pass
          + timing_.exp_block(active)  // exp + sum
          + timing_.div_block(active)  // normalize
          + block(active);             // weighted read
  state_.mem_request = false;
}

}  // namespace mann::accel
