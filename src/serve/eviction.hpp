// Model-eviction policies for the device pool.
//
// A pool slot holds one task's program in BRAM; dispatching a different
// task to it evicts the resident model and re-pays the upload when that
// model next runs. Before this interface existed the victim was whatever
// free slot happened to come first (last-program-wins), so swaps were
// accidents of slot ordering. The scheduler now asks a policy to choose
// the victim among the free slots whose residents would have to go:
//
//   * LRU        — evict the least recently dispatched resident; recency
//                  approximates reuse for round-robin serving corpora.
//                  Pool slots always use it.
//   * cost-aware — evict the candidate that is cheapest to bring back.
//                  The ServiceCycleCache installs it by kind
//                  (set_eviction_policy): an entry's reload cost is its
//                  simulated cycles.
//
// Policies are pure choice functions over the candidate view the owner
// assembles — all recency/cost bookkeeping lives with the owner, so a
// policy cannot desynchronize from its state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "obs/metrics.hpp"
#include "sim/types.hpp"

namespace mann::serve {

enum class EvictionPolicyKind : std::uint8_t {
  kLru,
  kCostAware,
};

/// One free slot whose resident model would be evicted, with the stats a
/// policy may weigh. Candidates arrive ordered by slot id.
struct EvictionCandidate {
  std::size_t slot = 0;
  std::size_t resident_task = 0;
  /// Serving-clock cycle of the slot's last dispatch (recency of use).
  sim::Cycle last_dispatch_cycle = 0;
  /// Cycles to bring the candidate back once evicted (a cache entry's
  /// simulated cycles); what cost-aware eviction minimizes.
  sim::Cycle reload_cycles = 0;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Picks the victim: an index into `candidates` (never empty). Must be
  /// deterministic — the serving timeline replays bit-identically only if
  /// every choice is a pure function of the candidate view.
  [[nodiscard]] virtual std::size_t pick_victim(
      std::span<const EvictionCandidate> candidates) const = 0;
};

/// Least-recently-used resident goes first; ties fall to the lower slot.
class LruEviction final : public EvictionPolicy {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "lru"; }
  [[nodiscard]] std::size_t pick_victim(
      std::span<const EvictionCandidate> candidates) const override;
};

/// Cheapest-to-reload resident goes first; ties fall to LRU order, then
/// the lower slot.
class CostAwareEviction final : public EvictionPolicy {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "cost"; }
  [[nodiscard]] std::size_t pick_victim(
      std::span<const EvictionCandidate> candidates) const override;
};

/// `metrics`, when set, wraps the policy so every pick bumps the
/// "serve.eviction.victims" counter (non-owning; may be null).
[[nodiscard]] std::unique_ptr<EvictionPolicy> make_eviction_policy(
    EvictionPolicyKind kind, obs::MetricsRegistry* metrics = nullptr);

}  // namespace mann::serve
