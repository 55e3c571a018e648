// Module base class for the cycle-level dataflow simulation.
//
// Modules are ticked once per clock cycle in a fixed order by the
// Simulator. A module models its internal pipelines with cycle counters:
// when it starts a multi-cycle operation it performs the arithmetic
// immediately (transaction semantics) and then stays busy for the
// operation's latency, which preserves cycle-accurate timing at the module
// boundary without simulating every register.
#pragma once

#include <optional>
#include <string>

#include "sim/types.hpp"

namespace mann::sim {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Advances one clock cycle.
  virtual void tick() = 0;

  /// Earliest cycle at which this module's tick could do more than skip()
  /// accounts for, given no new input from other modules: touch state
  /// another module can see, push or pop a FIFO, or throw. `now` is the
  /// cycle about to be ticked; any cycle <= `now` means "due now". Simulator::run_events uses this to
  /// fast-forward across quiescent stretches — request arrivals in the
  /// serving runtime, link credit and busy countdowns in the accelerator.
  /// Reporting an earlier cycle than the true one is always safe (it only
  /// costs a tick); a later one breaks cycle exactness. kNever means the
  /// module is idle until some other module acts; nullopt means "unknown
  /// — tick me every cycle", the default for a module without a model of
  /// its own timing.
  [[nodiscard]] virtual std::optional<Cycle> next_activity(
      Cycle /*now*/) const {
    return std::nullopt;
  }

  /// Bulk-accounts `cycles` ticks that run_events jumps over. The
  /// simulator only skips cycles before every module's next_activity(),
  /// so these ticks are pure bookkeeping: busy countdowns, busy/stall
  /// counters, credit accumulation. A module whose skipped ticks change
  /// nothing keeps this default no-op.
  virtual void skip(Cycle /*cycles*/) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const ModuleStats& stats() const noexcept { return stats_; }

 protected:
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
