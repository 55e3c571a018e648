// The value pass: the device's Q16.16 datapath over one story.
//
// In Fig. 1's dataflow a story's values reach the device's timing only
// through OUTPUT's probe count under ITH: every other busy cycle, stall
// and op count follows from the story's shape (words, sentences, slots,
// hops). So the Accelerator computes each story's values here, in the
// modules' arithmetic order, and times the run from the stories' shapes
// and these values alone: in closed form when the host is synchronous,
// otherwise by ticking the six modules. That is the functional/timing
// split of FAST (Chiou et al., MICRO 2007). ServiceCycleCache memoizes
// the values per (device, story).
//
// The value pass is compiled once per x86-64 level from one source
// (datapath.cpp): the baseline, x86-64-v3 (AVX2) and x86-64-v4
// (AVX-512VL). The two wider levels' entry points inline embed(),
// read_hops(), address_and_read() and search() with the fx_types.hpp
// kernels, so the MAC loops run as wide as the CPU's vector lanes, as the
// device's MAC lanes do. A process takes the widest level its CPU runs,
// once, from the CPU's features; nothing else chooses it. Every level
// gives the baseline's bits (the kernels' integer arithmetic does not
// depend on the width, and the float steps call the same out-of-line
// LUTs), which Host/DatapathLevels.* hold on seeded programs and
// Host/SuiteDatapathLevels.* on the trained suite. Other architectures,
// and compilers that cannot name the levels, build the baseline only.
//
// What the pass reads besides the program's matrices is laid out for its
// loops in DatapathTables, which each Accelerator builds once and every
// Datapath borrows: READ forms W_r·k in one sweep over W_r's columns,
// proved saturation-free row by row by an L1 bound before it starts, and
// OUTPUT visits its classes in descending-bound order, stopping at the
// first bound below the running best (read_hops(), search()).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accel/compiler.hpp"
#include "accel/config.hpp"
#include "accel/fx_types.hpp"
#include "data/types.hpp"
#include "numeric/lut.hpp"

namespace mann::accel {

/// One story's values: what OUTPUT's timing reads and the host gets back.
struct StoryValues {
  std::int32_t prediction = -1;
  bool early_exit = false;          ///< an ITH threshold fired
  std::uint64_t output_probes = 0;  ///< output-layer dot products

  friend bool operator==(const StoryValues&, const StoryValues&) = default;
};

/// An instruction-set level the value pass is compiled for.
enum class VectorLevel : std::uint8_t {
  kBaseline,   ///< every CPU of the architecture (x86-64: SSE2)
  kX86_64_V3,  ///< AVX2, BMI2, FMA
  kX86_64_V4,  ///< AVX-512 F, BW, CD, DQ and VL
};

/// "baseline", "x86-64-v3" or "x86-64-v4".
[[nodiscard]] const char* vector_level_name(VectorLevel level) noexcept;

/// The levels this build compiled and this CPU runs, baseline first and
/// the widest last: the one every Datapath runs unless a test names
/// another. Read from the CPU once per process.
[[nodiscard]] std::span<const VectorLevel> host_vector_levels();

/// What the value pass reads of a program besides its matrices, laid out
/// for its loops. An Accelerator builds them once, in its constructor
/// (O(E^2 + V log V)), and every Datapath it makes borrows them.
struct DatapathTables {
  /// W_r's columns are padded to a multiple of this many rows, so READ's
  /// sweep has no remainder loop at any vector width.
  static constexpr std::size_t kSweepLanes = 8;

  DatapathTables() = default;
  /// The tables of `program` under `config`'s ITH setting. Throws
  /// std::invalid_argument, before anything is built, for a program
  /// validate_program refuses.
  DatapathTables(const DeviceProgram& program, const AccelConfig& config);

  // What they were built for: a Datapath refuses any other program.
  std::size_t vocab_size = 0;  ///< V
  std::size_t width = 0;       ///< E
  bool ith = false;            ///< OUTPUT probes in ITH's order

  /// E rounded up to a multiple of kSweepLanes: a column's length.
  std::size_t padded_width = 0;
  /// W_r transposed: column j holds raw(W_r[i][j]) for every row i at
  /// [j·padded_width, (j + 1)·padded_width), zero past row E.
  std::vector<std::int32_t> w_r_columns;
  /// Σ_j |raw(W_r[i][j])| per row i: the half of READ's sweep bound that
  /// does not depend on the key.
  std::vector<std::int64_t> w_r_l1;
  /// Σ_i |raw(W_o[c][i])| of the class c probed at each rank (rank order,
  /// or ITH's order): the per-class half of OUTPUT's logit bound.
  std::vector<std::int64_t> output_l1;
  /// The ranks by descending output_l1, so by descending bound; the
  /// earlier rank first on a tie.
  std::vector<std::size_t> by_bound;
};

/// The registers and banks of one story and the steps that compute them,
/// each in the order its module does. run() is the value pass, compiled
/// at `level` (the host's widest by default); the steps are public so that
/// tests can drive each block on hand-built registers, and called one by
/// one they run at the baseline. The program and the tables are borrowed
/// and must outlive the datapath, so a temporary cannot bind. Throws
/// std::invalid_argument for a level outside host_vector_levels(), and for
/// tables built for another vocabulary size, width or ITH setting than
/// `program` under `config` has.
class Datapath {
 public:
  Datapath(const DeviceProgram& program, const AccelConfig& config,
           const DatapathTables& tables,
           VectorLevel level = host_vector_levels().back());
  Datapath(DeviceProgram&&, const AccelConfig&, const DatapathTables&,
           VectorLevel = host_vector_levels().back()) = delete;
  Datapath(const DeviceProgram&, const AccelConfig&, DatapathTables&&,
           VectorLevel = host_vector_levels().back()) = delete;

  /// embed(), read_hops(), then search(reg_h), at the datapath's level.
  /// Throws std::logic_error for a story without a non-empty sentence (MEM
  /// would read an empty memory).
  [[nodiscard]] StoryValues run(const data::EncodedStory& story);

  /// INPUT & WRITE (Eq. 2; Eq. 3 at t = 1): the banks hold the embedding
  /// sums of the story's last max_memory non-empty sentences, oldest
  /// first, which is what a bank that drops its oldest slot when full
  /// keeps; MEM's sparse ties and saturating sums depend on that order.
  /// reg_k holds the question's sum.
  void embed(const data::EncodedStory& story);
  /// The program's hops from the key in reg_k, with k ← h between them
  /// (Eq. 3). Each is READ's W_r·k into reg_h, MEM's address_and_read()
  /// on the same key, then h += r (Eq. 4). READ forms W_r·k for every row
  /// in one sweep over W_r's columns, summing the rounded products in 64
  /// bits. Row i keeps its sum when L1_i·‖k‖∞ + E·2^15 ≤ (2^31 - 1)·2^16,
  /// with L1_i = Σ_j |raw(W_r[i][j])|: then Σ_j |r_j| ≤ 2^31 - 1, so, as
  /// in fx_dot, no product and no prefix of the sequential sum saturates.
  /// Every other row takes fx_dot, as every row does past fx_dot's
  /// kWideDotTerms, where a 64-bit sum could overflow.
  void read_hops();
  /// MEM (Eq. 1 and 5): scores every occupied slot against reg_k, keeps
  /// the best sparse_read_slots of them (0 = all), and writes their
  /// softmax into `attention` and the weighted read into reg_r.
  void address_and_read();
  /// OUTPUT (Eq. 6): the device probes every class in order, and with ITH
  /// it exits at the first logit above its class's threshold. A rounded
  /// Q16.16 product has |r| = ⌊(|w·h| + 2^15) / 2^16⌋, so a class's logit,
  /// by fx_dot's wide sum or its saturating loop alike, is at most
  /// U_c = min(2^31 - 1, ⌊(L1_c·‖h‖∞ + E·2^15) / 2^16⌋). An ITH probe with
  /// U_c ≤ θ_c cannot fire, and an argmax candidate with U_c below the
  /// running best, or equal to it at a later rank, cannot win (the
  /// sequential search keeps the first rank of the maximum, and class 0
  /// when every logit is Fx::min()). So the search walks ITH's phase in
  /// probe order, evaluating only the probes that can fire, then visits
  /// the ranks that phase left unevaluated by descending U (U grows with
  /// L1_c) and stops at the first U below the running best: no later rank
  /// can reach it (exact MIPS in norm order, as in LEMP; Teflioudi et al.,
  /// SIGMOD 2015). It reports the device's answer and probe count exactly.
  [[nodiscard]] StoryValues search(std::span<const Fx> h);

  // ---- INPUT & WRITE / MEM: address and content banks ----
  FxMatrix mem_a;             ///< rows [0, slots): one sentence each
  FxMatrix mem_c;
  std::size_t slots = 0;      ///< occupied rows, oldest first
  std::vector<Fx> attention;  ///< a^t (Eq. 1), one entry per slot

  // ---- READ registers ----
  FxVector reg_k;  ///< read key k^t (Eq. 3)
  FxVector reg_r;  ///< read vector r^t (Eq. 5)
  FxVector reg_h;  ///< controller output h^t (Eq. 4)

 private:
  [[nodiscard]] std::size_t probe_class(std::size_t rank) const noexcept;

  /// READ's W_r·k into reg_h (read_hops()).
  void multiply_w_r();

  /// run()'s body, compiled at the datapath's level (datapath.cpp).
  StoryValues (*pass_)(Datapath&, const data::EncodedStory&);
  const DeviceProgram& program_;
  const std::size_t sparse_slots_;  ///< 0 = dense softmax/read
  const bool ith_enabled_;
  const DatapathTables& tables_;
  const numeric::ExpLut& exp_lut_;
  const numeric::ReciprocalLut& recip_lut_;

  std::vector<Fx> scores_;             ///< address_and_read()'s work buffer
  std::vector<std::size_t> selected_;  ///< address_and_read()'s work buffer
  std::vector<std::uint64_t> sweep_;   ///< multiply_w_r()'s row sums
};

}  // namespace mann::accel
