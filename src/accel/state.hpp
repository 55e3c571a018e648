// Architectural state shared by the accelerator modules.
//
// In RTL these are the BRAMs and registers of Fig. 1; module classes own
// their control FSMs but share this storage, with the control flags below
// standing in for the req/ack wires drawn as control paths in the figure.
#pragma once

#include <cstdint>
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
        acc_q(program.embedding_dim),
        reg_k(program.embedding_dim),
        reg_r(program.embedding_dim),
        reg_h(program.embedding_dim) {
    mem_a.reserve(program.max_memory);
    mem_c.reserve(program.max_memory);
  }

  AcceleratorState(DeviceProgram&&) = delete;

  const DeviceProgram& program;

  // ---- INPUT & WRITE: embedding accumulators (emb_a / emb_c / emb_q) ----
  FxVector acc_a;
  FxVector acc_c;
  FxVector acc_q;
  bool sentence_open = false;  ///< a sentence accumulator holds data

  // ---- MEM module: address & content memory banks ----
  std::vector<FxVector> mem_a;  ///< one embedded vector per slot (Eq. 2)
  std::vector<FxVector> mem_c;
  std::vector<Fx> attention;    ///< a^t (Eq. 1), written by MEM

  // ---- READ module registers ----
  FxVector reg_k;  ///< read key k^t (Eq. 3)
  FxVector reg_r;  ///< read vector r^t (Eq. 5), written by MEM
  FxVector reg_h;  ///< controller output h^t (Eq. 4)

  // ---- control wires ----
  std::uint64_t model_words_seen = 0;
  bool model_loaded = false;

  bool story_active = false;    ///< CONTROL accepted kStoryStart
  bool input_done = false;      ///< kEndOfStory processed; READ may start
  bool read_busy = false;       ///< READ owns the recurrent datapath
  bool mem_request = false;     ///< READ -> MEM: compute attention + read
  bool mem_done = false;        ///< MEM -> READ: reg_r/attention valid
  std::size_t hops_done = 0;
  bool features_ready = false;  ///< READ -> OUTPUT: reg_h is h^H

  /// Resets per-story state (new kStoryStart).
  void begin_story() {
    mem_a.clear();
    mem_c.clear();
    attention.clear();
    fx_clear(acc_a);
    fx_clear(acc_c);
    fx_clear(acc_q);
    fx_clear(reg_k);
    fx_clear(reg_r);
    fx_clear(reg_h);
    sentence_open = false;
    story_active = true;
    input_done = false;
    read_busy = false;
    mem_request = false;
    mem_done = false;
    hops_done = 0;
    features_ready = false;
  }
};

/// Command words CONTROL forwards to the INPUT & WRITE module.
enum class InputCmdKind : std::uint8_t {
  kSentenceStart,
  kContextWord,
  kQuestionStart,
  kQuestionWord,
  kEndOfStory,
};

struct InputCmd {
  InputCmdKind kind = InputCmdKind::kSentenceStart;
  std::int32_t word = 0;
};

}  // namespace mann::accel
