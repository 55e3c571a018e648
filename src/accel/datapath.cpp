#include "accel/datapath.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

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

// The function-unit tables depend only on their default configuration,
// so every datapath reads one shared copy instead of rebuilding (and
// error-probing) them for each run.
const numeric::ExpLut& shared_exp_lut() {
  static const numeric::ExpLut lut;
  return lut;
}

const numeric::ReciprocalLut& shared_recip_lut() {
  static const numeric::ReciprocalLut lut;
  return lut;
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

Datapath::Datapath(const DeviceProgram& program, const AccelConfig& config,
                   std::span<const std::int64_t> row_l1)
    : mem_a(program.max_memory, program.embedding_dim),
      mem_c(program.max_memory, program.embedding_dim),
      reg_k(program.embedding_dim),
      reg_r(program.embedding_dim),
      reg_h(program.embedding_dim),
      program_(program),
      sparse_slots_(config.sparse_read_slots),
      ith_enabled_(config.ith_enabled && program.has_ith_tables()),
      row_l1_(row_l1),
      exp_lut_(shared_exp_lut()),
      recip_lut_(shared_recip_lut()) {
  attention.reserve(program.max_memory);
}

StoryValues Datapath::run(const data::EncodedStory& story) {
  embed(story);
  read_hops();
  return search(reg_h);
}

void Datapath::embed(const data::EncodedStory& story) {
  std::size_t dropped = 0;  // the oldest non-empty sentences past the bank
  for (const std::vector<std::int32_t>& sentence : story.context) {
    dropped += sentence.empty() ? 0 : 1;
  }
  dropped -= std::min(dropped, program_.max_memory);
  slots = 0;
  for (const std::vector<std::int32_t>& sentence : story.context) {
    if (sentence.empty()) {
      continue;  // no word opened the accumulator: nothing is written
    }
    if (dropped > 0) {
      --dropped;
      continue;
    }
    const std::span<Fx> a = mem_a.row(slots);
    const std::span<Fx> c = mem_c.row(slots);
    fx_clear(a);
    fx_clear(c);
    for (const std::int32_t w : sentence) {
      fx_add(program_.emb_a.row(static_cast<std::size_t>(w)), a);
      fx_add(program_.emb_c.row(static_cast<std::size_t>(w)), c);
    }
    ++slots;
  }
  fx_clear(reg_k);
  for (const std::int32_t w : story.question) {
    fx_add(program_.emb_q.row(static_cast<std::size_t>(w)), reg_k);
  }
}

void Datapath::read_hops() {
  for (std::size_t hop = 0; hop < program_.hops; ++hop) {
    if (hop > 0) {
      std::ranges::copy(reg_h, reg_k.begin());  // Eq. 3, t > 1: k = h
    }
    // READ's MAC array computes W_r·k while MEM walks the bank on the
    // same key; h = W_r·k + r once the read vector is back.
    for (std::size_t row = 0; row < reg_h.size(); ++row) {
      reg_h[row] = fx_dot(program_.w_r.row(row), reg_k);
    }
    address_and_read();
    fx_add(reg_r, reg_h);
  }
}

void Datapath::address_and_read() {
  if (slots == 0) {
    throw std::logic_error("MEM: read requested with empty memory");
  }

  // Addressing dot products s_i = M_a[i] · k, tracking the max for
  // softmax stability. Every slot is scored even in sparse mode:
  // content addressing cannot skip candidates.
  std::vector<Fx>& scores = scores_;
  scores.resize(slots);
  Fx max_score = Fx::min();
  for (std::size_t i = 0; i < slots; ++i) {
    scores[i] = fx_dot(mem_a.row(i), reg_k);
    max_score = std::max(max_score, scores[i]);
  }

  // Sparse selection (§VI-B): keep only the best k slots for the
  // exp/divide/read phases, earlier slots first on ties.
  std::vector<std::size_t>& selected = selected_;
  selected.resize(slots);
  std::iota(selected.begin(), selected.end(), std::size_t{0});
  if (sparse_slots_ > 0 && sparse_slots_ < slots) {
    std::stable_sort(selected.begin(), selected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[a] > scores[b];
                     });
    selected.resize(sparse_slots_);
  }

  // Max-subtracted exp through the LUT, with its running sum.
  attention.assign(slots, Fx{});
  Fx sum;
  for (const std::size_t i : selected) {
    const float x = (scores[i] - max_score).to_float();
    attention[i] = Fx::from_float(exp_lut_(x));
    sum += attention[i];
  }

  // Normalization through the divider (reciprocal + multiply).
  const Fx inv_sum = Fx::from_float(recip_lut_(sum.to_float()));
  for (const std::size_t i : selected) {
    attention[i] *= inv_sum;
  }

  // Soft read r = Σ a_i · M_c[i] through the MAC array.
  fx_clear(reg_r);
  for (const std::size_t i : selected) {
    fx_axpy(attention[i], mem_c.row(i), reg_r);
  }
}

std::size_t Datapath::probe_class(std::size_t rank) const noexcept {
  if (ith_enabled_) {
    return static_cast<std::size_t>(program_.probe_order[rank]);
  }
  return rank;
}

StoryValues Datapath::search(std::span<const Fx> h) {
  const std::size_t v = program_.vocab_size;
  const std::size_t e = program_.embedding_dim;
  const auto logit = [&](std::size_t rank) {
    return fx_dot(program_.w_o.row(probe_class(rank)), h);
  };

  // U per rank (header). Past l1_limit, L1·‖h‖∞ alone exceeds
  // (2^31 - 1)·2^16, so the bound saturates without forming the product.
  std::int64_t h_max = 0;
  for (const Fx x : h) {
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

  StoryValues values;
  values.output_probes = v;
  if (ith_enabled_) {
    for (std::size_t rank = 0; rank < v; ++rank) {
      const Fx theta = program_.thresholds[probe_class(rank)];
      if (bound_[rank] <= theta.raw()) {
        continue;  // logit <= U <= θ: this probe cannot fire
      }
      const Fx z = logit(rank);
      if (z > theta) {
        values.output_probes = rank + 1;
        values.prediction = static_cast<std::int32_t>(probe_class(rank));
        values.early_exit = true;
        return values;
      }
      consider(rank, z);
    }
  }
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
  values.prediction = static_cast<std::int32_t>(
      best == Fx::min() ? 0 : probe_class(best_rank));
  return values;
}

}  // namespace mann::accel
