#include "accel/output_module.hpp"

#include <algorithm>
#include <limits>

namespace mann::accel {

namespace {

constexpr std::int64_t kRawMax = Fx::kRawMax;
/// Marks a rank whose logit the search has already taken into account:
/// below every running best, so no later visit evaluates it again.
constexpr std::int64_t kSeen = std::numeric_limits<std::int64_t>::min();

std::int64_t magnitude(Fx x) noexcept {
  const std::int64_t raw = x.raw();
  return raw < 0 ? -raw : raw;
}

}  // namespace

std::vector<std::int64_t> row_l1_norms(const FxMatrix& w_o) {
  std::vector<std::int64_t> l1(w_o.rows(), 0);
  for (std::size_t c = 0; c < w_o.rows(); ++c) {
    for (const Fx w : w_o.row(c)) {
      l1[c] += magnitude(w);
    }
  }
  return l1;
}

OutputModule::OutputModule(AcceleratorState& state, const AccelConfig& config,
                           sim::Fifo<std::int32_t>& fifo_out,
                           std::span<const std::int64_t> row_l1)
    : Module("OUTPUT"),
      state_(state),
      timing_(config.timing),
      ith_enabled_(config.ith_enabled && state.program.has_ith_tables()),
      fifo_out_(fifo_out),
      row_l1_(row_l1) {}

std::size_t OutputModule::probe_class(std::size_t rank) const noexcept {
  if (ith_enabled_) {
    return static_cast<std::size_t>(state_.program.probe_order[rank]);
  }
  return rank;
}

Fx OutputModule::logit(std::size_t rank) const {
  return fx_dot(state_.program.w_o.row(probe_class(rank)), state_.reg_h);
}

void OutputModule::begin_search() {
  state_.features_ready = false;
  record_ = {};
  // Transaction semantics: the whole search runs now, and the module then
  // stays busy for the probes' summed latency (the first pays the tree
  // fill, later ones pipeline). The device probes in datapath order; the
  // host computes only the logits whose bound can change the answer.
  const DeviceProgram& program = state_.program;
  const std::size_t v = program.vocab_size;
  const std::size_t e = program.embedding_dim;

  // U per rank (header). Past l1_limit, L1·‖h‖∞ alone exceeds
  // (2^31 - 1)·2^16, so the bound saturates without forming the product.
  std::int64_t h_max = 0;
  for (const Fx x : state_.reg_h) {
    h_max = std::max(h_max, magnitude(x));
  }
  constexpr std::int64_t kShiftedMax = kRawMax << Fx::kFracBits;
  const std::int64_t l1_limit =
      h_max == 0 ? std::numeric_limits<std::int64_t>::max()
                 : kShiftedMax / h_max;
  const auto slack = static_cast<std::int64_t>(e) << (Fx::kFracBits - 1);
  bound_.resize(v);
  for (std::size_t rank = 0; rank < v; ++rank) {
    const std::int64_t l1 = row_l1_[probe_class(rank)];
    bound_[rank] = l1 > l1_limit
                       ? kRawMax
                       : std::min(kRawMax, (l1 * h_max + slack) >>
                                               Fx::kFracBits);
  }

  // The running argmax, first rank on ties. A best of Fx::min() answers
  // class 0 whatever its rank, as the sequential search's initial
  // (Fx::min(), class 0) does when no logit beats it.
  Fx best = Fx::min();
  std::size_t best_rank = v;
  const auto consider = [&](std::size_t rank, Fx z) {
    if (z > best || (z == best && rank < best_rank)) {
      best = z;
      best_rank = rank;
    }
    bound_[rank] = kSeen;
  };

  record_.probes = v;
  if (ith_enabled_) {
    for (std::size_t rank = 0; rank < v; ++rank) {
      const Fx theta = program.thresholds[probe_class(rank)];
      if (bound_[rank] <= theta.raw()) {
        continue;  // logit <= U <= θ: this probe cannot fire
      }
      const Fx z = logit(rank);
      if (z > theta) {
        record_.probes = rank + 1;
        record_.prediction = static_cast<std::int32_t>(probe_class(rank));
        record_.early_exit = true;
        break;
      }
      consider(rank, z);
    }
  }
  if (!record_.early_exit) {
    const auto visit = [&](std::size_t rank) {
      const std::int64_t u = bound_[rank];
      if (u < best.raw() || (u == best.raw() && rank > best_rank)) {
        return;  // logit <= U cannot beat the best, nor tie it earlier
      }
      consider(rank, logit(rank));
    };
    // The largest bound first: its logit lifts the running best early.
    const auto largest = std::max_element(bound_.begin(), bound_.end());
    if (largest != bound_.end()) {
      visit(static_cast<std::size_t>(largest - bound_.begin()));
    }
    for (std::size_t rank = 0; rank < v; ++rank) {
      visit(rank);
    }
    record_.prediction = static_cast<std::int32_t>(
        best == Fx::min() ? 0 : probe_class(best_rank));
  }

  busy_ = record_.probes == 0
              ? 0
              : timing_.dot_cycles(e) +
                    static_cast<sim::Cycle>(record_.probes - 1) *
                        timing_.dot_ii(e);
  ops().mac += record_.probes * e;
  ops().mem_read += record_.probes * e;
  ops().compare += record_.probes;
  phase_ = Phase::kProbing;
}

}  // namespace mann::accel
