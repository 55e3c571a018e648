// The clock: ticks registered modules in order until a completion
// predicate fires (or a watchdog limit trips, which is always a bug).
#pragma once

#include <functional>
#include <vector>

#include "sim/module.hpp"
#include "sim/types.hpp"

namespace mann::sim {

class Simulator {
 public:
  /// Registers a module. Tick order == registration order; pick an order
  /// consistent with the dataflow direction (producers before consumers
  /// gives same-cycle forwarding through FIFOs, like combinational
  /// FIFO bypass).
  void add_module(Module& module);

  /// Runs until `done()` returns true. Returns cycles elapsed in this call.
  /// Throws std::runtime_error when `max_cycles` elapses first.
  Cycle run_until(const std::function<bool()>& done, Cycle max_cycles);

  /// Like run_until, but when every registered module reports a future
  /// next_activity(now) the clock jumps straight to the earliest one:
  /// each module's skip() bulk-accounts the gap, then advance() moves the
  /// clock. Cycle-exact (same state, stats and done() cycle as
  /// run_until) for modules that honour the next_activity/skip contract;
  /// identical to run_until when any module returns nullopt. The
  /// accelerator runs every device simulation on it, and the serving
  /// session steps on it to cross sparse request arrivals over billions
  /// of cycles in bounded host time.
  ///
  /// `limit` is an exclusive horizon: events before it run; when the
  /// next one is at or past it, the call returns without moving the
  /// clock, so a caller that learns of new input later can resume from
  /// the same cycle (done() is then still false). kNever runs until
  /// done() or the watchdog, including the "idle forever" one.
  Cycle run_events(const std::function<bool()>& done, Cycle max_cycles,
                   Cycle limit = kNever);

  /// Moves the clock by `cycles` without ticking or skipping any module.
  /// run_events calls it after the modules' skip() accounting, and it is
  /// the replay hook for consumers that already know a stretch's exact
  /// cycle count from a previous simulation (the service-cycle cache
  /// replays memoized device runs this way: the clock lands exactly
  /// where a full re-simulation would, at zero cost).
  void advance(Cycle cycles) noexcept { now_ += cycles; }

  /// Cycles elapsed since construction: ticked, skipped or advanced.
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  [[nodiscard]] const std::vector<Module*>& modules() const noexcept {
    return modules_;
  }

 private:
  std::vector<Module*> modules_;
  Cycle now_ = 0;
};

}  // namespace mann::sim
