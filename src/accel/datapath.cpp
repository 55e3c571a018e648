#include "accel/datapath.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

// x86-64 builds compile the value pass at x86-64-v3 and v4 beside the
// baseline when the compiler can test the CPU for a level by name
// (__builtin_cpu_supports("x86-64-v3"): GCC 12, Clang 18).
#if defined(__x86_64__) &&                                  \
    ((defined(__clang__) && __clang_major__ >= 18) ||       \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 12))
#define MANN_X86_64_LEVELS 1
#else
#define MANN_X86_64_LEVELS 0
#endif

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

// Sparse selection (§VI-B): keeps the best `k` slots by score, earlier
// slots first on ties. It compares and moves indices and does no MAC
// work, so it stays out of line: the levels' entry points below share
// this one copy rather than each inlining the sort's merge routines.
[[gnu::noinline]] void keep_best(std::vector<std::size_t>& selected,
                                 std::span<const Fx> scores, std::size_t k) {
  std::stable_sort(selected.begin(), selected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  selected.resize(k);
}

// The value pass at each level (header). The baseline calls the steps as
// they are compiled. Each wider entry point flattens the same call: its
// steps and the kernels they call are inlined into it, and its target
// attribute compiles that one body at its level's vector width. What it
// still calls out of line (the LUTs, fx_clear, the library) stays the
// baseline's, so no out-of-line copy of a header function is built for a
// wider level.
using ValuePass = StoryValues (*)(Datapath&, const data::EncodedStory&);

StoryValues pass_baseline(Datapath& datapath,
                          const data::EncodedStory& story) {
  datapath.embed(story);
  datapath.read_hops();
  return datapath.search(datapath.reg_h);
}

#if MANN_X86_64_LEVELS
[[gnu::flatten, gnu::target("arch=x86-64-v3")]] StoryValues pass_x86_64_v3(
    Datapath& datapath, const data::EncodedStory& story) {
  return pass_baseline(datapath, story);
}

[[gnu::flatten, gnu::target("arch=x86-64-v4")]] StoryValues pass_x86_64_v4(
    Datapath& datapath, const data::EncodedStory& story) {
  return pass_baseline(datapath, story);
}
#endif

ValuePass pass_at(VectorLevel level) {
  const std::span<const VectorLevel> levels = host_vector_levels();
  if (std::ranges::find(levels, level) == levels.end()) {
    throw std::invalid_argument(
        std::string("Datapath: this CPU does not run ") +
        vector_level_name(level));
  }
#if MANN_X86_64_LEVELS
  if (level == VectorLevel::kX86_64_V4) {
    return pass_x86_64_v4;
  }
  if (level == VectorLevel::kX86_64_V3) {
    return pass_x86_64_v3;
  }
#endif
  return pass_baseline;
}

}  // namespace

const char* vector_level_name(VectorLevel level) noexcept {
  switch (level) {
    case VectorLevel::kBaseline:
      return "baseline";
    case VectorLevel::kX86_64_V3:
      return "x86-64-v3";
    case VectorLevel::kX86_64_V4:
      return "x86-64-v4";
  }
  return "unknown";
}

std::span<const VectorLevel> host_vector_levels() {
  static const std::vector<VectorLevel> levels = [] {
    std::vector<VectorLevel> found = {VectorLevel::kBaseline};
#if MANN_X86_64_LEVELS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v3")) {
      found.push_back(VectorLevel::kX86_64_V3);
      if (__builtin_cpu_supports("x86-64-v4")) {
        found.push_back(VectorLevel::kX86_64_V4);
      }
    }
#endif
    return found;
  }();
  return levels;
}

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
                   std::span<const std::int64_t> row_l1, VectorLevel level)
    : mem_a(program.max_memory, program.embedding_dim),
      mem_c(program.max_memory, program.embedding_dim),
      reg_k(program.embedding_dim),
      reg_r(program.embedding_dim),
      reg_h(program.embedding_dim),
      pass_(pass_at(level)),
      program_(program),
      sparse_slots_(config.sparse_read_slots),
      ith_enabled_(config.ith_enabled && program.has_ith_tables()),
      row_l1_(row_l1),
      exp_lut_(shared_exp_lut()),
      recip_lut_(shared_recip_lut()) {
  attention.reserve(program.max_memory);
}

StoryValues Datapath::run(const data::EncodedStory& story) {
  return pass_(*this, story);
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

  // Sparse mode keeps only the best k slots for the exp/divide/read
  // phases.
  std::vector<std::size_t>& selected = selected_;
  selected.resize(slots);
  std::iota(selected.begin(), selected.end(), std::size_t{0});
  if (sparse_slots_ > 0 && sparse_slots_ < slots) {
    keep_best(selected, scores, sparse_slots_);
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
