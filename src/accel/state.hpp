// Control state shared by the accelerator modules in the timing pass.
//
// In RTL these are the control FSMs' flags and counters of Fig. 1; the
// flags stand in for the req/ack wires drawn as control paths in the
// figure. The datapath's values (banks, registers) are not here: the
// value pass (accel/datapath.hpp) computes them per story, and the
// modules tick from the story's shape and those values alone. The done
// flags order the modules as the values' dependences do: READ starts
// only after input_done, finishes a hop only after mem_done, OUTPUT
// searches only after features_ready, and CONTROL starts the next story
// only after OUTPUT has answered and cleared story_active.
#pragma once

#include <cstdint>

#include "accel/compiler.hpp"

namespace mann::accel {

/// One run's control state. The program is borrowed, not copied: BRAM
/// contents are the Accelerator's (or the caller's) DeviceProgram, which
/// must outlive this state, so a temporary cannot bind.
struct AcceleratorState {
  explicit AcceleratorState(const DeviceProgram& prog) : program(prog) {}

  AcceleratorState(DeviceProgram&&) = delete;

  const DeviceProgram& program;

  // ---- INPUT & WRITE / MEM ----
  bool sentence_open = false;  ///< a sentence accumulator holds data
  std::size_t slots = 0;       ///< occupied memory slots, at most max_memory

  // ---- control wires ----
  std::uint64_t model_words_seen = 0;
  bool model_loaded = false;

  bool story_active = false;    ///< CONTROL accepted kStoryStart
  bool input_done = false;      ///< kEndOfStory processed; READ may start
  bool mem_request = false;     ///< READ -> MEM: compute attention + read
  bool mem_done = false;        ///< MEM -> READ: the read vector is valid
  std::size_t hops_done = 0;
  bool features_ready = false;  ///< READ -> OUTPUT: h^H is valid

  /// Resets per-story state (new kStoryStart).
  void begin_story() {
    slots = 0;
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
