// Architectural state shared by the accelerator modules.
//
// In RTL these are the BRAMs and registers of Fig. 1; module classes own
// their control FSMs but share this storage, with the control flags below
// standing in for the req/ack wires drawn as control paths in the figure.
//
// Each value is held once. The two memory banks are fixed max_memory x E
// arrays allocated with the state, and a module writes its result
// registers in place when it starts the operation that computes them
// (sim/module.hpp's publication rule). The done flags, not copies, keep
// consumers from reading early: READ and MEM read the question's key
// only after input_done, READ reads reg_r only after mem_done, OUTPUT
// reads reg_h only after features_ready, and CONTROL starts the next
// story only after OUTPUT has read reg_h and cleared story_active.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "accel/compiler.hpp"
#include "accel/fx_types.hpp"

namespace mann::accel {

/// One run's registers and banks. The program is borrowed, not copied:
/// BRAM contents are the Accelerator's (or the caller's) DeviceProgram,
/// which must outlive this state, so a temporary cannot bind.
struct AcceleratorState {
  explicit AcceleratorState(const DeviceProgram& prog)
      : program(prog),
        acc_a(program.embedding_dim),
        acc_c(program.embedding_dim),
        mem_a(program.max_memory, program.embedding_dim),
        mem_c(program.max_memory, program.embedding_dim),
        reg_k(program.embedding_dim),
        reg_r(program.embedding_dim),
        reg_h(program.embedding_dim) {
    attention.reserve(program.max_memory);
  }

  AcceleratorState(DeviceProgram&&) = delete;

  const DeviceProgram& program;

  // ---- INPUT & WRITE: sentence accumulators (emb_a / emb_c) ----
  FxVector acc_a;
  FxVector acc_c;
  bool sentence_open = false;  ///< a sentence accumulator holds data

  // ---- MEM module: address & content memory banks ----
  FxMatrix mem_a;             ///< rows [0, slots): one slot each (Eq. 2)
  FxMatrix mem_c;
  std::size_t slots = 0;      ///< occupied rows, oldest first
  std::vector<Fx> attention;  ///< a^t (Eq. 1), written by MEM

  // ---- READ module registers ----
  FxVector reg_k;  ///< read key k^t (Eq. 3); INPUT & WRITE embeds k^1
  FxVector reg_r;  ///< read vector r^t (Eq. 5), written by MEM
  FxVector reg_h;  ///< controller output h^t (Eq. 4)

  // ---- control wires ----
  std::uint64_t model_words_seen = 0;
  bool model_loaded = false;

  bool story_active = false;    ///< CONTROL accepted kStoryStart
  bool input_done = false;      ///< kEndOfStory processed; READ may start
  bool mem_request = false;     ///< READ -> MEM: compute attention + read
  bool mem_done = false;        ///< MEM -> READ: reg_r/attention valid
  std::size_t hops_done = 0;
  bool features_ready = false;  ///< READ -> OUTPUT: reg_h is h^H

  /// Writes one sentence's embeddings into the next bank row. A full
  /// bank first drops its oldest row by shifting the others up, so rows
  /// [0, slots) always hold the story's last sentences oldest first: the
  /// order MEM scores and reads them in, on which its sparse selection's
  /// ties and its saturating sums depend.
  void store_slot(std::span<const Fx> a, std::span<const Fx> c) {
    if (slots == program.max_memory) {
      for (std::size_t i = 1; i < slots; ++i) {
        std::ranges::copy(mem_a.row(i), mem_a.row(i - 1).begin());
        std::ranges::copy(mem_c.row(i), mem_c.row(i - 1).begin());
      }
      --slots;
    }
    std::ranges::copy(a, mem_a.row(slots).begin());
    std::ranges::copy(c, mem_c.row(slots).begin());
    ++slots;
  }

  /// Resets per-story state (new kStoryStart). The banks keep their rows:
  /// a story reads only the slots it writes.
  void begin_story() {
    slots = 0;
    attention.clear();
    fx_clear(acc_a);
    fx_clear(acc_c);
    fx_clear(reg_k);
    fx_clear(reg_r);
    fx_clear(reg_h);
    sentence_open = false;
    story_active = true;
    input_done = false;
    mem_request = false;
    mem_done = false;
    hops_done = 0;
    features_ready = false;
  }
};

}  // namespace mann::accel
