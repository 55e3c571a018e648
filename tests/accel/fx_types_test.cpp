#include "accel/fx_types.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/compiler.hpp"
#include "accel/datapath.hpp"
#include "accel/output_module.hpp"
#include "core/ith.hpp"
#include "data/dataset.hpp"
#include "model/trainer.hpp"
#include "numeric/random.hpp"
#include "numeric/vector_ops.hpp"
#include "sim/simulator.hpp"

namespace mann::accel {
namespace {

TEST(FxMatrix, ShapeAndAccess) {
  FxMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.size(), 6U);
  m(1, 2) = Fx::from_float(1.5F);
  EXPECT_FLOAT_EQ(m(1, 2).to_float(), 1.5F);
}

TEST(FxMatrix, RowSpanAliases) {
  FxMatrix m(2, 2);
  auto row = m.row(1);
  row[0] = Fx::from_float(-2.0F);
  EXPECT_FLOAT_EQ(m(1, 0).to_float(), -2.0F);
}

TEST(Quantize, RoundTripWithinLsb) {
  numeric::Rng rng(3);
  numeric::Matrix m(4, 5);
  for (float& v : m.data()) {
    v = rng.uniform(-2.0F, 2.0F);
  }
  const FxMatrix q = quantize(m);
  const float lsb = 1.0F / 65536.0F;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_NEAR(q(r, c).to_float(), m(r, c), 0.5F * lsb + 1e-7F);
    }
  }
}

TEST(FxDot, MatchesFloatReference) {
  numeric::Rng rng(7);
  std::vector<float> fa(24);
  std::vector<float> fb(24);
  FxVector a(24);
  FxVector b(24);
  for (std::size_t i = 0; i < 24; ++i) {
    fa[i] = rng.uniform(-1.0F, 1.0F);
    fb[i] = rng.uniform(-1.0F, 1.0F);
    a[i] = Fx::from_float(fa[i]);
    b[i] = Fx::from_float(fb[i]);
  }
  const float ref = numeric::dot(fa, fb);
  EXPECT_NEAR(fx_dot(a, b).to_float(), ref, 24.0F * 3.0F / 65536.0F);
}

/// The datapath's dot product written out step by step: each product
/// rounded half away from zero by a branch on its sign, saturated, and
/// added to the accumulator in order with saturation. fx_dot must give
/// its bits on every input, whichever path it takes.
std::int32_t sequential_dot(std::span<const Fx> a, std::span<const Fx> b) {
  constexpr std::int64_t kMax = Fx::kRawMax;
  constexpr std::int64_t kMin = Fx::kRawMin;
  constexpr std::int64_t kBias = std::int64_t{1} << (Fx::kFracBits - 1);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t prod =
        static_cast<std::int64_t>(a[i].raw()) * b[i].raw();
    const std::int64_t rounded = prod >= 0
                                     ? (prod + kBias) >> Fx::kFracBits
                                     : -((-prod + kBias) >> Fx::kFracBits);
    acc = std::clamp(acc + std::clamp(rounded, kMin, kMax), kMin, kMax);
  }
  return static_cast<std::int32_t>(acc);
}

FxVector from_raws(const std::vector<std::int32_t>& raws) {
  FxVector v;
  for (const std::int32_t r : raws) {
    v.push_back(Fx::from_raw(r));
  }
  return v;
}

/// Counts the pairs on which fx_dot and the sequential loop differ,
/// reporting the first few.
class DotChecker {
 public:
  void check(const FxVector& a, const FxVector& b, const std::string& what) {
    const std::int32_t want = sequential_dot(a, b);
    const std::int32_t got = fx_dot(a, b).raw();
    if (got != want && ++mismatches_ <= 5) {
      ADD_FAILURE() << what << " (length " << a.size() << "): fx_dot " << got
                    << ", sequential " << want;
    }
  }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t mismatches_ = 0;
};

/// `n` words drawn uniformly from [lo, hi].
FxVector uniform_words(std::mt19937_64& rng, std::size_t n, std::int64_t lo,
                       std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> word(lo, hi);
  FxVector v(n);
  for (Fx& x : v) {
    x = Fx::from_raw(static_cast<std::int32_t>(word(rng)));
  }
  return v;
}

TEST(FxDot, MatchesSequentialLoopInTheWorkingRange) {
  // Words up to +-2^20 (+-16.0), the scale of the datapath's weights and
  // registers: products round in the low bits, and sums stay in range.
  std::mt19937_64 rng(0xD07F00D);
  std::uniform_int_distribution<int> bits(8, 20);
  DotChecker checker;
  for (std::size_t n = 0; n <= 64; ++n) {
    for (int rep = 0; rep < 100; ++rep) {
      const std::int64_t span = std::int64_t{1} << bits(rng);
      checker.check(uniform_words(rng, n, -span, span),
                    uniform_words(rng, n, -span, span), "working range");
    }
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, MatchesSequentialLoopOnFullRangeWords) {
  // Whole-word operands: most products saturate, so these mostly take
  // the sequential fallback.
  std::mt19937_64 rng(0xF011);
  DotChecker checker;
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      checker.check(uniform_words(rng, n, Fx::kRawMin, Fx::kRawMax),
                    uniform_words(rng, n, Fx::kRawMin, Fx::kRawMax),
                    "full range");
    }
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, MatchesSequentialLoopAtTheSaturationBoundary) {
  // Rounded products that sum to exactly 2^31 - 1, +2^31 and -2^31: the
  // raw words times +-1.0 are the products themselves. Same-sign parts
  // put the magnitude sum on the target; a +x, -x pair added at random
  // places lifts it past 2^31 - 1 without moving the sum, and may
  // saturate a prefix of the sequential sum.
  std::mt19937_64 rng(0xB0DA);
  DotChecker checker;
  const std::int32_t one = Fx::kOne;
  for (const std::int64_t target :
       {std::int64_t{Fx::kRawMax}, -std::int64_t{Fx::kRawMin},
        std::int64_t{Fx::kRawMin}}) {
    const std::int64_t sign = target < 0 ? -1 : 1;
    for (int rep = 0; rep < 200; ++rep) {
      // |target| in 2-8 parts of at most 2^31 - 1, each given the sign.
      std::vector<std::int64_t> parts;
      std::int64_t left = sign * target;
      for (int k = std::uniform_int_distribution<int>(2, 8)(rng);
           k > 1 && left > 1; --k) {
        std::uniform_int_distribution<std::int64_t> cut(
            std::max<std::int64_t>(1, left - Fx::kRawMax), left - 1);
        const std::int64_t part = cut(rng);
        parts.push_back(sign * part);
        left -= part;
      }
      parts.push_back(sign * left);
      if (rep % 2 == 1) {
        const std::int64_t x =
            std::uniform_int_distribution<std::int64_t>(1, Fx::kRawMax)(rng);
        parts.push_back(x);
        parts.push_back(-x);
      }
      std::shuffle(parts.begin(), parts.end(), rng);
      FxVector a;
      FxVector b;
      for (const std::int64_t part : parts) {
        // The product's sign goes on either operand.
        const std::int64_t flip = (rng() & 1U) != 0U ? -1 : 1;
        a.push_back(Fx::from_raw(static_cast<std::int32_t>(part * flip)));
        b.push_back(Fx::from_raw(static_cast<std::int32_t>(one * flip)));
      }
      checker.check(a, b, "sum " + std::to_string(target));
      checker.check(b, a, "sum " + std::to_string(target) + ", swapped");
    }
  }
  // A few small cases by hand.
  const std::int32_t max = Fx::kRawMax;
  const std::int32_t min = Fx::kRawMin;
  checker.check(from_raws({max}), from_raws({one}), "2^31 - 1");
  checker.check(from_raws({1 << 30, 1 << 30}), from_raws({one, one}), "2^31");
  checker.check(from_raws({min}), from_raws({one}), "-2^31");
  checker.check(from_raws({max, 1, -1}), from_raws({one, one, one}),
                "saturated prefix");
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, MatchesSequentialLoopOnExactTies) {
  // Raw k * 2^16 +- 2^15 times raw +-1 is a product exactly half-way
  // between two integers k and k +- 1 of either sign: each product must
  // round half away from zero on its own before the sum.
  std::mt19937_64 rng(0x71E5);
  std::uniform_int_distribution<std::int32_t> whole(-300, 300);
  const std::int32_t half = Fx::kOne / 2;
  DotChecker checker;
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      FxVector a;
      FxVector b;
      for (std::size_t i = 0; i < n; ++i) {
        const bool above = (rng() & 1U) != 0U;
        a.push_back(Fx::from_raw(whole(rng) * Fx::kOne +
                                 (above ? half : -half)));
        b.push_back(Fx::from_raw((rng() & 1U) != 0U ? 1 : -1));
      }
      checker.check(a, b, "ties");
    }
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, MatchesSequentialLoopOnAllMinWords) {
  // kRawMin squared is the largest product there is (2^46 rounded), and
  // every one saturates. kLongest is one past the longest vector whose
  // magnitudes fit a 64-bit sum.
  constexpr std::size_t kLongest = std::size_t{1} << 17;
  DotChecker checker;
  for (const std::size_t n : {std::size_t{1}, std::size_t{24}, kLongest}) {
    const FxVector min(n, Fx::min());
    const FxVector max(n, Fx::max());
    checker.check(min, min, "kRawMin * kRawMin");
    checker.check(min, max, "kRawMin * kRawMax");
    checker.check(max, min, "kRawMax * kRawMin");
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(FxDot, LengthMismatchThrows) {
  FxVector a(3);
  FxVector b(2);
  EXPECT_THROW((void)fx_dot(a, b), std::invalid_argument);
}

// ---- OUTPUT's search over the dot products above ----------------------------

/// What one story's OUTPUT search reports: the answer, the probes the
/// device made, and OUTPUT's busy cycles and ops.
struct SearchOutcome {
  std::int32_t prediction = -1;
  std::uint64_t probes = 0;
  bool early_exit = false;
  sim::ModuleStats stats;
};

/// The device's search written out: every class probed in rank order
/// through sequential_dot; under ITH the first logit above its threshold
/// answers, and otherwise the first rank of the largest logit does, or
/// class 0 when no logit beats Fx::min(). The adder tree's fill is paid
/// once and each later probe pipelines; the answer's push is one more
/// busy tick.
SearchOutcome exhaustive_search(const DeviceProgram& program,
                                const FxVector& h, const AccelConfig& cfg) {
  const bool ith = cfg.ith_enabled && program.has_ith_tables();
  const std::size_t e = program.embedding_dim;
  SearchOutcome out;
  std::int32_t best = Fx::kRawMin;
  std::size_t best_class = 0;
  sim::Cycle busy = 0;
  for (std::size_t rank = 0; rank < program.vocab_size; ++rank) {
    const auto cls =
        ith ? static_cast<std::size_t>(program.probe_order[rank]) : rank;
    const std::int32_t z = sequential_dot(program.w_o.row(cls), h);
    ++out.probes;
    busy += rank == 0 ? cfg.timing.dot_cycles(e) : cfg.timing.dot_ii(e);
    if (ith && z > program.thresholds[cls].raw()) {
      out.prediction = static_cast<std::int32_t>(cls);
      out.early_exit = true;
      break;
    }
    if (z > best) {
      best = z;
      best_class = cls;
    }
  }
  if (!out.early_exit) {
    out.prediction = static_cast<std::int32_t>(best_class);
  }
  out.stats.busy_cycles = busy + 1;
  out.stats.ops.mac = out.probes * e;
  out.stats.ops.mem_read = out.probes * e;
  out.stats.ops.compare = out.probes;
  return out;
}

/// One story's search on `h` through the value pass, then its probes
/// through OutputModule, clocked until the answer reaches FIFO_OUT.
SearchOutcome module_search(const DeviceProgram& program, const FxVector& h,
                            const AccelConfig& cfg) {
  const DatapathTables tables(program, cfg);
  Datapath datapath(program, cfg, tables);
  const StoryValues values = datapath.search(h);
  AcceleratorState state(program);
  state.begin_story();
  state.features_ready = true;
  sim::Fifo<std::int32_t> out("OUT", 1);
  OutputModule module(state, cfg, out, std::span(&values, 1));
  sim::Simulator simulator;
  (void)simulator.run_until([&] { return !out.empty(); }, 1'000'000, module);
  EXPECT_EQ(*out.peek(), values.prediction);
  return {values.prediction, values.output_probes, values.early_exit,
          module.stats()};
}

/// A program whose only live tables are OUTPUT's: `v` x `e` zero words.
DeviceProgram output_program(std::size_t v, std::size_t e) {
  DeviceProgram p;
  p.vocab_size = v;
  p.embedding_dim = e;
  p.hops = 1;
  p.max_memory = 1;
  p.emb_a = FxMatrix(v, e);
  p.emb_c = FxMatrix(v, e);
  p.emb_q = FxMatrix(v, e);
  p.w_r = FxMatrix(e, e);
  p.w_o = FxMatrix(v, e);
  return p;
}

/// The logit bound the header derives, with the same overflow guard:
/// min(2^31 - 1, floor((L1·‖h‖∞ + E·2^15) / 2^16)).
std::int32_t logit_bound(std::span<const Fx> w, const FxVector& h) {
  const auto mag = [](Fx x) { return std::abs(std::int64_t{x.raw()}); };
  std::int64_t l1 = 0;
  for (const Fx x : w) {
    l1 += mag(x);
  }
  std::int64_t h_max = 0;
  for (const Fx x : h) {
    h_max = std::max(h_max, mag(x));
  }
  const std::int64_t shifted_max = std::int64_t{Fx::kRawMax} << Fx::kFracBits;
  if (h_max != 0 && l1 > shifted_max / h_max) {
    return Fx::kRawMax;
  }
  const std::int64_t slack = static_cast<std::int64_t>(w.size()) << 15;
  return static_cast<std::int32_t>(std::min<std::int64_t>(
      Fx::kRawMax, (l1 * h_max + slack) >> Fx::kFracBits));
}

/// Gives `program` a random probe order and thresholds that sit on the
/// search's edges: never firing (Fx::max()), always firing (Fx::min()),
/// equal to the class's bound, at its logit or one either side of it, or
/// anywhere.
void add_ith_tables(DeviceProgram& program, const FxVector& h,
                    std::mt19937_64& rng) {
  const std::size_t v = program.vocab_size;
  program.probe_order.resize(v);
  std::iota(program.probe_order.begin(), program.probe_order.end(), 0);
  std::shuffle(program.probe_order.begin(), program.probe_order.end(), rng);
  program.thresholds.resize(v);
  std::uniform_int_distribution<int> kind(0, 9);
  for (std::size_t c = 0; c < v; ++c) {
    const std::int64_t z = sequential_dot(program.w_o.row(c), h);
    std::int64_t theta = 0;
    switch (kind(rng)) {
      case 0:
      case 1:
      case 2:
        theta = Fx::kRawMax;
        break;
      case 3:
        theta = Fx::kRawMin;
        break;
      case 4:
      case 5:
        theta = logit_bound(program.w_o.row(c), h);
        break;
      case 6:
        theta = z;
        break;
      case 7:
        theta = z - 1;
        break;
      case 8:
        theta = z + 1;
        break;
      default:
        theta = uniform_words(rng, 1, -(1 << 20), 1 << 20)[0].raw();
        break;
    }
    program.thresholds[c] = Fx::from_raw(static_cast<std::int32_t>(
        std::clamp<std::int64_t>(theta, Fx::kRawMin, Fx::kRawMax)));
  }
}

/// Counts the stories on which the value pass's search with OutputModule's
/// timing and the exhaustive search differ in any reported field,
/// reporting the first few.
class SearchChecker {
 public:
  explicit SearchChecker(std::uint64_t seed) : rng_(seed) {}

  std::mt19937_64& rng() { return rng_; }

  /// Checks `h` against `program` plain, and under ITH when the program
  /// has tables, at a random adder-tree width.
  void check(const DeviceProgram& program, const FxVector& h,
             const std::string& what) {
    static constexpr std::array<std::size_t, 4> kLanes = {1, 2, 3, 8};
    AccelConfig cfg;
    cfg.timing.lane_width = kLanes[rng_() % kLanes.size()];
    for (const bool ith : {false, true}) {
      if (ith && !program.has_ith_tables()) {
        continue;
      }
      cfg.ith_enabled = ith;
      ++cases_;
      const SearchOutcome want = exhaustive_search(program, h, cfg);
      const SearchOutcome got = module_search(program, h, cfg);
      const sim::OpCounts& ops = got.stats.ops;
      const bool same =
          got.prediction == want.prediction && got.probes == want.probes &&
          got.early_exit == want.early_exit &&
          got.stats.busy_cycles == want.stats.busy_cycles &&
          got.stats.stall_cycles == 0 && ops.mac == want.stats.ops.mac &&
          ops.mem_read == want.stats.ops.mem_read &&
          ops.compare == want.stats.ops.compare && ops.add == 0 &&
          ops.exp == 0 && ops.div == 0 && ops.mem_write == 0;
      if (!same && ++mismatches_ <= 5) {
        ADD_FAILURE() << what << (ith ? ", ITH" : ", plain") << " (V "
                      << program.vocab_size << ", E " << program.embedding_dim
                      << "): module answered " << got.prediction << " after "
                      << got.probes << " probes (exit " << got.early_exit
                      << ", busy " << got.stats.busy_cycles << "), search "
                      << want.prediction << " after " << want.probes
                      << " (exit " << want.early_exit << ", busy "
                      << want.stats.busy_cycles << ")";
      }
    }
  }

  [[nodiscard]] std::size_t cases() const { return cases_; }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }

 private:
  std::mt19937_64 rng_;
  std::size_t cases_ = 0;
  std::size_t mismatches_ = 0;
};

/// Copies random rows of W_o over others, so classes tie across ranks.
void duplicate_rows(DeviceProgram& program, std::mt19937_64& rng) {
  const std::size_t v = program.vocab_size;
  for (std::size_t k = rng() % 3; k > 0 && v > 1; --k) {
    const std::size_t from = rng() % v;
    const std::size_t to = rng() % v;
    const auto src = program.w_o.row(from);
    std::copy(src.begin(), src.end(), program.w_o.row(to).begin());
  }
}

TEST(OutputSearch, MatchesExhaustiveSearchOnSmallWords) {
  // Few distinct words make equal logits and bounds common: whole
  // numbers (exact products, so with E = 1 the bound is the logit), and
  // odd raw words times +-0.5 (every product a tie that rounds away
  // from zero, which makes the bound exact at any width when the signs
  // agree). Duplicated rows tie classes across ranks.
  SearchChecker checker(0x0B0D);
  auto& rng = checker.rng();
  std::uniform_int_distribution<std::size_t> classes(1, 10);
  std::uniform_int_distribution<std::size_t> width(1, 5);
  for (int rep = 0; rep < 4000; ++rep) {
    DeviceProgram program = output_program(classes(rng), width(rng));
    const std::size_t e = program.embedding_dim;
    FxVector h(e);
    const int family = rep % 3;
    for (std::size_t c = 0; c < program.vocab_size; ++c) {
      for (Fx& w : program.w_o.row(c)) {
        const auto small = static_cast<std::int32_t>(rng() % 7) - 3;
        w = Fx::from_raw(family == 1 ? 2 * small + 1 : small * Fx::kOne);
      }
    }
    for (Fx& x : h) {
      const auto small = static_cast<std::int32_t>(rng() % 7) - 3;
      const std::int32_t sign = (rng() & 1U) != 0U ? 1 : -1;
      x = Fx::from_raw(family == 1 ? sign * (Fx::kOne / 2)
                       : family == 2 ? 0
                                     : small * Fx::kOne);
    }
    duplicate_rows(program, rng);
    checker.check(program, h, "small words");
    add_ith_tables(program, h, rng);
    checker.check(program, h, "small words");
  }
  // By hand: rank 1 has the larger bound and is probed first, and its
  // logit equals rank 0's exact bound, so rank 0 ties it at an earlier
  // rank and must still be evaluated (answer: class 0).
  DeviceProgram program = output_program(2, 2);
  program.w_o(0, 0) = Fx::from_raw(1);
  program.w_o(0, 1) = Fx::from_raw(1);
  program.w_o(1, 0) = Fx::from_raw(5);
  program.w_o(1, 1) = Fx::from_raw(-1);
  const FxVector half(2, Fx::from_raw(Fx::kOne / 2));
  checker.check(program, half, "earlier rank at an equal bound");
  EXPECT_EQ(exhaustive_search(program, half, AccelConfig{}).prediction, 0);
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(OutputSearch, MatchesExhaustiveSearchOnTinyRoundedProducts) {
  // w = +-1 raw times h = +-2^15 raw is +-0.5 of an LSB, which rounds to
  // +-1: the whole logit is rounding, so a bound without the E·2^15
  // slack would read 0 below a logit of 1.
  SearchChecker checker(0x71A7);
  auto& rng = checker.rng();
  for (int rep = 0; rep < 2000; ++rep) {
    DeviceProgram program = output_program(1 + rng() % 6, 1 + rng() % 4);
    for (std::size_t c = 0; c < program.vocab_size; ++c) {
      for (Fx& w : program.w_o.row(c)) {
        w = Fx::from_raw(static_cast<std::int32_t>(rng() % 3) - 1);
      }
    }
    FxVector h(program.embedding_dim);
    for (Fx& x : h) {
      const std::int32_t pick = static_cast<std::int32_t>(rng() % 4);
      x = Fx::from_raw(pick == 0 ? 0
                       : pick == 1 ? -(Fx::kOne / 2)
                                   : Fx::kOne / 2);
    }
    duplicate_rows(program, rng);
    checker.check(program, h, "tiny products");
    add_ith_tables(program, h, rng);
    checker.check(program, h, "tiny products");
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(OutputSearch, MatchesExhaustiveSearchOnFullRangeWords) {
  // Whole-word operands: L1·‖h‖∞ passes 2^63 from E = 2, so a bound
  // formed without the overflow guard wraps, and most logits saturate.
  SearchChecker checker(0xF0F0);
  auto& rng = checker.rng();
  for (int rep = 0; rep < 1500; ++rep) {
    DeviceProgram program = output_program(1 + rng() % 6, 2 + rng() % 7);
    for (std::size_t c = 0; c < program.vocab_size; ++c) {
      const FxVector row = uniform_words(rng, program.embedding_dim,
                                         Fx::kRawMin, Fx::kRawMax);
      std::copy(row.begin(), row.end(), program.w_o.row(c).begin());
    }
    const FxVector h =
        uniform_words(rng, program.embedding_dim, Fx::kRawMin, Fx::kRawMax);
    duplicate_rows(program, rng);
    checker.check(program, h, "full range");
    add_ith_tables(program, h, rng);
    checker.check(program, h, "full range");
  }
  // The largest L1 and ‖h‖∞ there are: 8 · 2^31 · 2^31 = 2^65.
  DeviceProgram program = output_program(3, 8);
  for (std::size_t c = 0; c < 3; ++c) {
    for (Fx& w : program.w_o.row(c)) {
      w = c == 1 ? Fx::max() : Fx::min();
    }
  }
  checker.check(program, FxVector(8, Fx::min()), "extremes");
  checker.check(program, FxVector(8, Fx::max()), "extremes");
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(OutputSearch, AllMinLogitsAnswerClassZero) {
  // Every logit saturates at Fx::min(), which no comparison beats: the
  // device answers class 0 after probing every class, plain or under an
  // ITH order that starts elsewhere, whatever the thresholds.
  SearchChecker checker(0x3117);
  auto& rng = checker.rng();
  for (int rep = 0; rep < 300; ++rep) {
    DeviceProgram program = output_program(2 + rng() % 8, 1 + rng() % 4);
    const FxVector h(program.embedding_dim, Fx::min());
    for (std::size_t c = 0; c < program.vocab_size; ++c) {
      for (Fx& w : program.w_o.row(c)) {
        w = Fx::max();
      }
    }
    add_ith_tables(program, h, rng);
    if (program.probe_order[0] == 0) {
      std::rotate(program.probe_order.begin(),
                  program.probe_order.begin() + 1, program.probe_order.end());
    }
    checker.check(program, h, "all Fx::min()");
    AccelConfig cfg;
    cfg.ith_enabled = true;
    EXPECT_EQ(module_search(program, h, cfg).prediction, 0);
  }
  EXPECT_EQ(checker.mismatches(), 0U);
}

TEST(OutputSearch, MatchesExhaustiveSearchOnATrainedProgram) {
  // A trained qa1 program's W_o and calibrated ITH tables, with the
  // controller outputs h^H of real stories quantized to Q16.16.
  data::DatasetConfig dc;
  dc.train_stories = 200;
  dc.test_stories = 60;
  dc.seed = 11;
  const data::TaskDataset dataset =
      data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc);
  model::ModelConfig mc;
  mc.vocab_size = dataset.vocab_size();
  mc.embedding_dim = 20;
  mc.hops = 3;
  numeric::Rng init(3);
  model::MemN2N net(mc, init);
  model::TrainConfig tc;
  tc.epochs = 6;
  model::train(net, dataset.train, tc);
  const core::InferenceThresholding ith =
      core::InferenceThresholding::calibrate(net, dataset.train, {});
  const DeviceProgram program = compile_model(net, &ith);

  SearchChecker checker(0x7EA1);
  for (const auto* split : {&dataset.train, &dataset.test}) {
    for (const data::EncodedStory& story : *split) {
      FxVector h;
      for (const float x : net.forward_features(story)) {
        h.push_back(Fx::from_float(x));
      }
      checker.check(program, h, "trained qa1");
    }
  }
  EXPECT_EQ(checker.cases(), 2 * (dc.train_stories + dc.test_stories));
  EXPECT_EQ(checker.mismatches(), 0U);
}

/// Runs one story per key through the value pass at every level this
/// host runs and holds READ's W_r·k, row by row, to sequential dots. The
/// program has one hop, keys READ with emb_q's row `q` (question {q}) and
/// has one context word of zero content, so MEM's one slot reads r = 0 and
/// the pass leaves h = W_r·k in reg_h. Returns the rows checked whose dot
/// saturates, so that a case can show it reached fx_dot's fallback.
std::size_t check_read_sweep(const FxMatrix& w_r,
                             const std::vector<FxVector>& keys,
                             const std::string& what,
                             std::size_t& mismatches) {
  const std::size_t e = w_r.rows();
  DeviceProgram program = output_program(keys.size(), e);
  program.w_r = w_r;
  for (std::size_t q = 0; q < keys.size(); ++q) {
    std::ranges::copy(keys[q], program.emb_q.row(q).begin());
  }
  const DatapathTables tables(program, AccelConfig{});
  std::size_t saturated = 0;
  for (const VectorLevel level : host_vector_levels()) {
    Datapath datapath(program, AccelConfig{}, tables, level);
    for (std::size_t q = 0; q < keys.size(); ++q) {
      data::EncodedStory story;
      story.context = {{0}};
      story.question = {static_cast<std::int32_t>(q)};
      (void)datapath.run(story);
      for (std::size_t row = 0; row < e; ++row) {
        const std::int32_t want = sequential_dot(w_r.row(row), keys[q]);
        const std::int32_t got = datapath.reg_h[row].raw();
        saturated += want == Fx::kRawMax || want == Fx::kRawMin ? 1 : 0;
        if (got != want && ++mismatches <= 5) {
          ADD_FAILURE() << what << " at " << vector_level_name(level)
                        << ", E " << e << ", key " << q << ", row " << row
                        << ": h " << got << ", sequential dot " << want;
        }
      }
    }
  }
  return saturated;
}

TEST(ReadSweep, HoldsEveryRowToSequentialDots) {
  // Rows of one W_r at scales 2^0 to 2^-12 of the word range, so one sweep
  // keeps the wide sum on some rows and sends others to fx_dot; keys from
  // the same range, some holding Fx::min() (|Fx::min()| is one more than
  // Fx::max()), one all Fx::min() and one all Fx::max().
  std::mt19937_64 rng(0x5EE9);
  std::size_t mismatches = 0;
  std::size_t saturated = 0;
  for (const std::size_t e : {1U, 5U, 8U, 16U, 24U, 40U, 64U}) {
    for (const std::int64_t word_max :
         {std::int64_t{1} << 16, std::int64_t{1} << 22,
          std::int64_t{Fx::kRawMax}}) {
      FxMatrix w_r(e, e);
      for (std::size_t row = 0; row < e; ++row) {
        const std::int64_t max = word_max >> (rng() % 13);
        const FxVector words = uniform_words(rng, e, -max, max);
        std::ranges::copy(words, w_r.row(row).begin());
      }
      std::vector<FxVector> keys;
      for (int k = 0; k < 6; ++k) {
        keys.push_back(uniform_words(rng, e, -word_max, word_max));
        if (k % 2 == 1) {
          keys.back()[rng() % e] = Fx::min();
        }
      }
      keys.emplace_back(e, Fx::min());
      keys.emplace_back(e, Fx::max());
      saturated += check_read_sweep(
          w_r, keys, "words to " + std::to_string(word_max), mismatches);
    }
  }
  EXPECT_GT(saturated, 0U) << "no case reached fx_dot's fallback";
  // The edge row: L1·‖k‖∞ = (16·2^12)·(2^31 - 1) is exactly
  // (2^31 - 1)·2^16, and each product, 2^12·(2^31 - 1), rounds up to 2^27.
  // The sequential sum saturates at 2^31 - 1; the wide sum reads 2^31,
  // which wraps to -2^31, so only the bound's E·2^15 keeps it off the
  // wide sum.
  FxMatrix edge(16, 16);
  for (std::size_t row = 0; row < 16; ++row) {
    std::ranges::fill(edge.row(row), Fx::from_raw(4096));
  }
  EXPECT_EQ(check_read_sweep(edge, {FxVector(16, Fx::max())}, "edge row",
                             mismatches),
            16 * host_vector_levels().size());
  EXPECT_EQ(mismatches, 0U);
}

TEST(FxAxpyAndAdd, Basics) {
  FxVector x = {Fx::from_float(1.0F), Fx::from_float(2.0F)};
  FxVector y = {Fx::from_float(10.0F), Fx::from_float(20.0F)};
  fx_axpy(Fx::from_float(0.5F), x, y);
  EXPECT_FLOAT_EQ(y[0].to_float(), 10.5F);
  EXPECT_FLOAT_EQ(y[1].to_float(), 21.0F);
  fx_add(x, y);
  EXPECT_FLOAT_EQ(y[0].to_float(), 11.5F);
  fx_clear(y);
  EXPECT_EQ(y[0], Fx{});
}

TEST(FxAdd, SaturatesAsOperatorPlusDoes) {
  // fx_add saturates in 32 bits without a branch; operator+ clamps a
  // 64-bit sum. Every pair of the extremes and of words around the
  // wrap points, then 1M seeded whole-word pairs.
  std::vector<std::int32_t> words = {Fx::kRawMin, Fx::kRawMax, 0, 1, -1};
  for (const std::int32_t near : {Fx::kRawMin, Fx::kRawMax, 0,
                                  std::int32_t{1} << 30, -(1 << 30)}) {
    for (std::int32_t d = -2; d <= 2; ++d) {
      const std::int64_t w = std::int64_t{near} + d;
      if (w >= Fx::kRawMin && w <= Fx::kRawMax) {
        words.push_back(static_cast<std::int32_t>(w));
      }
    }
  }
  FxVector x;
  FxVector y;
  for (const std::int32_t a : words) {
    for (const std::int32_t b : words) {
      x.push_back(Fx::from_raw(a));
      y.push_back(Fx::from_raw(b));
    }
  }
  std::mt19937_64 rng(0xADD5A7);
  const FxVector rx = uniform_words(rng, 1'000'000, Fx::kRawMin, Fx::kRawMax);
  const FxVector ry = uniform_words(rng, 1'000'000, Fx::kRawMin, Fx::kRawMax);
  x.insert(x.end(), rx.begin(), rx.end());
  y.insert(y.end(), ry.begin(), ry.end());
  FxVector sum = y;
  fx_add(x, sum);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (sum[i] != x[i] + y[i] && ++mismatches <= 5) {
      ADD_FAILURE() << x[i].raw() << " + " << y[i].raw() << " gave "
                    << sum[i].raw() << ", operator+ " << (x[i] + y[i]).raw();
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

TEST(FxAxpy, SaturatesAsOperatorsDo) {
  // fx_axpy clamps the rounded product to 32 bits and adds under fx_add's
  // overflow rule, without a branch; the operators clamp the product,
  // then clamp a 64-bit sum. Every triple of the extremes, of words
  // around the wrap points and of ties (k·2^16 ± 2^15 times an odd word
  // rounds half away from zero), then 1M seeded whole-word triples, a
  // thousand to each scale so that the vector loop runs.
  std::vector<std::int32_t> words = {Fx::kRawMin, Fx::kRawMax, 0, 1, -1, 3,
                                     -3};
  for (const std::int32_t near : {Fx::kRawMin, Fx::kRawMax,
                                  std::int32_t{1} << 30, -(1 << 30)}) {
    for (std::int32_t d = -2; d <= 2; ++d) {
      const std::int64_t w = std::int64_t{near} + d;
      if (w >= Fx::kRawMin && w <= Fx::kRawMax && w != near) {
        words.push_back(static_cast<std::int32_t>(w));
      }
    }
  }
  for (const std::int32_t k : {-3, -1, 0, 1, 2, 32767}) {
    words.push_back(k * 65536 + 32768);
    words.push_back(k * 65536 - 32768);
  }
  std::size_t mismatches = 0;
  const auto check = [&](Fx s, const FxVector& x, const FxVector& y) {
    FxVector got = y;
    fx_axpy(s, x, got);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const Fx want = y[i] + s * x[i];
      if (got[i] != want && ++mismatches <= 5) {
        ADD_FAILURE() << y[i].raw() << " + " << s.raw() << " * " << x[i].raw()
                      << " gave " << got[i].raw() << ", operators "
                      << want.raw();
      }
    }
  };
  for (const std::int32_t s : words) {
    FxVector x;
    FxVector y;
    for (const std::int32_t a : words) {
      for (const std::int32_t b : words) {
        x.push_back(Fx::from_raw(a));
        y.push_back(Fx::from_raw(b));
      }
    }
    check(Fx::from_raw(s), x, y);
  }
  std::mt19937_64 rng(0xA8B1);
  for (int chunk = 0; chunk < 1000; ++chunk) {
    const Fx s = uniform_words(rng, 1, Fx::kRawMin, Fx::kRawMax)[0];
    check(s, uniform_words(rng, 1000, Fx::kRawMin, Fx::kRawMax),
          uniform_words(rng, 1000, Fx::kRawMin, Fx::kRawMax));
  }
  EXPECT_EQ(mismatches, 0U);
}

TEST(FxAxpy, MismatchThrows) {
  FxVector x(3);
  FxVector y(2);
  EXPECT_THROW(fx_axpy(Fx::from_float(1.0F), x, y), std::invalid_argument);
  EXPECT_THROW(fx_add(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace mann::accel
