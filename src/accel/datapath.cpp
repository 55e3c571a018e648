#include "accel/datapath.hpp"

#include <algorithm>
#include <functional>
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
/// (2^31 - 1)·2^16: a sum of rounded products whose unrounded magnitudes
/// plus their rounding slack stay within it stays within Fx's range.
constexpr std::int64_t kShiftedMax = kRawMax << Fx::kFracBits;

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

DatapathTables::DatapathTables(const DeviceProgram& program,
                               const AccelConfig& config) {
  validate_program(program);  // every loop below then reads within shape
  vocab_size = program.vocab_size;
  width = program.embedding_dim;
  ith = config.ith_enabled && program.has_ith_tables();
  padded_width = (width + kSweepLanes - 1) / kSweepLanes * kSweepLanes;
  w_r_columns.assign(width * padded_width, 0);
  w_r_l1.assign(width, 0);
  output_l1.assign(vocab_size, 0);
  by_bound.resize(vocab_size);
  for (std::size_t i = 0; i < width; ++i) {
    for (std::size_t j = 0; j < width; ++j) {
      w_r_columns[j * padded_width + i] = program.w_r(i, j).raw();
      w_r_l1[i] += magnitude(program.w_r(i, j));
    }
  }
  for (std::size_t rank = 0; rank < vocab_size; ++rank) {
    const std::size_t cls =
        ith ? static_cast<std::size_t>(program.probe_order[rank]) : rank;
    for (const Fx w : program.w_o.row(cls)) {
      output_l1[rank] += magnitude(w);
    }
  }
  std::iota(by_bound.begin(), by_bound.end(), std::size_t{0});
  std::ranges::stable_sort(by_bound, std::greater{},
                           [&](std::size_t rank) { return output_l1[rank]; });
}

Datapath::Datapath(const DeviceProgram& program, const AccelConfig& config,
                   const DatapathTables& tables, VectorLevel level)
    : mem_a(program.max_memory, program.embedding_dim),
      mem_c(program.max_memory, program.embedding_dim),
      reg_k(program.embedding_dim),
      reg_r(program.embedding_dim),
      reg_h(program.embedding_dim),
      pass_(pass_at(level)),
      program_(program),
      sparse_slots_(config.sparse_read_slots),
      ith_enabled_(config.ith_enabled && program.has_ith_tables()),
      tables_(tables),
      exp_lut_(shared_exp_lut()),
      recip_lut_(shared_recip_lut()),
      sweep_(tables.padded_width) {
  const auto refuse = [](const char* what) {
    throw std::invalid_argument(
        std::string("Datapath: the tables were built for another ") + what);
  };
  if (tables.vocab_size != program.vocab_size) {
    refuse("vocabulary size");
  }
  if (tables.width != program.embedding_dim) {
    refuse("embedding width");
  }
  if (tables.ith != ith_enabled_) {
    refuse("ITH setting");
  }
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
    multiply_w_r();
    address_and_read();
    fx_add(reg_r, reg_h);
  }
}

void Datapath::multiply_w_r() {
  const std::size_t e = reg_k.size();
  if (e > kWideDotTerms) {
    for (std::size_t row = 0; row < e; ++row) {
      reg_h[row] = fx_dot(program_.w_r.row(row), reg_k);
    }
    return;
  }
  // The bound (read_hops()) as L1_i ≤ ⌊(kShiftedMax - E·2^15) / ‖k‖∞⌋,
  // which cannot overflow.
  std::int64_t k_max = 0;
  for (const Fx x : reg_k) {
    k_max = std::max(k_max, magnitude(x));
  }
  const std::int64_t room =
      kShiftedMax - (static_cast<std::int64_t>(e) << (Fx::kFracBits - 1));
  const std::int64_t l1_limit =
      k_max == 0 ? std::numeric_limits<std::int64_t>::max() : room / k_max;
  // Every row's rounded products in one sweep over W_r's columns. A term
  // is Fx::rounded_product's ⌊(p + 2^15 - [p < 0]) / 2^16⌋ formed 2^63
  // higher, where the shift is a logical one (AVX2 has no 64-bit
  // arithmetic shift), so it reads 2^47 high and a sum E·2^47 high. The
  // sums wrap mod 2^64, and under the term limit every true sum fits in
  // 64 bits, so the difference is exact.
  const std::size_t padded = tables_.padded_width;
  std::uint64_t* const sum = sweep_.data();
  std::fill_n(sum, padded, 0);
  constexpr std::uint64_t kBias =
      (std::uint64_t{1} << 63) + (std::uint64_t{1} << (Fx::kFracBits - 1));
  for (std::size_t j = 0; j < e; ++j) {
    const std::int32_t* const column = tables_.w_r_columns.data() + j * padded;
    const std::int64_t k = reg_k[j].raw();
    for (std::size_t row = 0; row < padded; ++row) {
      const auto p = static_cast<std::uint64_t>(column[row] * k);
      sum[row] += (p + kBias - (p >> 63)) >> Fx::kFracBits;
    }
  }
  const std::uint64_t offset = static_cast<std::uint64_t>(e)
                               << (63 - Fx::kFracBits);
  for (std::size_t row = 0; row < e; ++row) {
    reg_h[row] = tables_.w_r_l1[row] <= l1_limit
                     ? Fx::from_raw(static_cast<Fx::raw_type>(
                           static_cast<std::int64_t>(sum[row] - offset)))
                     : fx_dot(program_.w_r.row(row), reg_k);
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
  const auto threshold = [&](std::size_t rank) {
    return program_.thresholds[probe_class(rank)].raw();
  };

  // U per rank (header). Past l1_limit, L1·‖h‖∞ alone exceeds
  // (2^31 - 1)·2^16, so the bound saturates without forming the product.
  std::int64_t h_max = 0;
  for (const Fx x : h) {
    h_max = std::max(h_max, magnitude(x));
  }
  const std::int64_t l1_limit =
      h_max == 0 ? std::numeric_limits<std::int64_t>::max()
                 : kShiftedMax / h_max;
  const auto slack = static_cast<std::int64_t>(e) << (Fx::kFracBits - 1);
  const auto bound = [&](std::size_t rank) {
    const std::int64_t l1 = tables_.output_l1[rank];
    return l1 > l1_limit ? kRawMax
                         : std::min(kRawMax,
                                    (l1 * h_max + slack) >> Fx::kFracBits);
  };

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
  };

  StoryValues values;
  values.output_probes = v;
  if (ith_enabled_) {
    for (std::size_t rank = 0; rank < v; ++rank) {
      if (bound(rank) <= threshold(rank)) {
        continue;  // logit <= U <= θ: this probe cannot fire
      }
      const Fx z = logit(rank);
      if (z.raw() > threshold(rank)) {
        values.output_probes = rank + 1;
        values.prediction = static_cast<std::int32_t>(probe_class(rank));
        values.early_exit = true;
        return values;
      }
      consider(rank, z);
    }
  }
  // The largest bounds first: once one is below the best, so is every
  // later one.
  for (const std::size_t rank : tables_.by_bound) {
    const std::int64_t u = bound(rank);
    if (u < best.raw()) {
      break;
    }
    if ((u == best.raw() && rank > best_rank) ||
        (ith_enabled_ && u > threshold(rank))) {
      continue;  // it cannot tie at an earlier rank, or ITH's phase had it
    }
    consider(rank, logit(rank));
  }
  values.prediction = static_cast<std::int32_t>(
      best == Fx::min() ? 0 : probe_class(best_rank));
  return values;
}

}  // namespace mann::accel
