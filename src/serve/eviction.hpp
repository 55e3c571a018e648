// Which resident goes when a model or a memoized run must make room.
//
// A pool slot holds one task's program in BRAM; dispatching a different
// task to it evicts the resident model and re-pays the upload when that
// model next runs. The scheduler always evicts by LRU: among the free
// slots whose residents would have to go, the least recently dispatched
// one (lowest slot id on ties; serve::Scheduler::choose_slot_edf).
//
// The ServiceCycleCache evicts memoized runs by one of two kinds, set
// with set_eviction_policy(kind):
//
//   * kLru       — the least recently touched entry (the default).
//   * kCostAware — the entry cheapest to bring back: the fewest
//                  simulated cycles, since re-simulating is the reload;
//                  equal cycles fall to the least recently touched.
//
// Both rules are plain argmins over simulated state, so every choice
// replays bit-identically.
#pragma once

#include <cstdint>

namespace mann::serve {

enum class EvictionPolicyKind : std::uint8_t {
  kLru,
  kCostAware,
};

}  // namespace mann::serve
