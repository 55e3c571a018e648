// Module base for the cycle-level dataflow simulation.
//
// Modules are ticked once per clock cycle in a fixed order by the
// Simulator. A module models its internal pipelines with cycle counters:
// when it starts a multi-cycle operation it stays busy for the
// operation's latency (transaction semantics) and raises the operation's
// done flag when that has passed, which preserves cycle-accurate timing
// at the module boundary without simulating every register. The
// accelerator's modules keep only time: the values their operations
// compute come from a separate value pass (accel/datapath.hpp), and the
// done flags order the modules as those values' dependences do
// (accel/state.hpp). They define tick() alone: ticked every cycle they
// time each run outside a synchronous run's closed form, and they are
// the reference that closed form is held to
// (accel::detail::simulate_per_cycle).
//
// There is no virtual interface. Simulator::run_until and run_events are
// templates over the concrete module types, so each caller's loop calls
// its modules' tick(), next_activity() and skip() directly and the
// compiler can inline them. A module defines tick() and may hide the
// defaults of next_activity() and skip() below with its own, as the
// serving session's stages do; this base keeps only the name and the
// busy/stall/op accounting.
#pragma once

#include <optional>
#include <string>

#include "sim/types.hpp"

namespace mann::sim {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // A module also defines `void tick()`, which advances one clock cycle.

  /// Earliest cycle at which this module's tick could do more than skip()
  /// accounts for, given no new input from other modules: touch state
  /// another module can see, push or pop a FIFO, or throw. `now` is the
  /// cycle about to be ticked; any cycle <= `now` means "due now".
  /// Simulator::run_events uses this to fast-forward across quiescent
  /// stretches, such as the serving runtime's sparse request arrivals.
  /// Reporting an earlier cycle than the true one is always safe (it only
  /// costs a tick); a later one breaks cycle exactness. kNever means the
  /// module is idle until some other module acts; nullopt means "unknown
  /// — tick me every cycle", the default for a module without a model of
  /// its own timing.
  [[nodiscard]] std::optional<Cycle> next_activity(Cycle /*now*/) const {
    return std::nullopt;
  }

  /// Bulk-accounts `cycles` ticks that run_events jumps over. The
  /// simulator only skips cycles before every module's next_activity(),
  /// so these ticks are pure bookkeeping: countdowns and busy/stall
  /// counters. A module whose skipped ticks change nothing keeps this
  /// default no-op.
  void skip(Cycle /*cycles*/) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const ModuleStats& stats() const noexcept { return stats_; }

 protected:
  /// Never destroyed through a Module pointer: nothing holds one.
  ~Module() = default;

  /// Accounting helpers for subclasses.
  void mark_busy(Cycle cycles = 1) noexcept { stats_.busy_cycles += cycles; }
  void mark_stalled(Cycle cycles = 1) noexcept {
    stats_.stall_cycles += cycles;
  }
  OpCounts& ops() noexcept { return stats_.ops; }

 private:
  std::string name_;
  ModuleStats stats_;
};

}  // namespace mann::sim
