// The clock: ticks a caller's modules in order until a completion
// predicate fires (or a watchdog limit trips, which is always a bug).
//
// The loops are templates over the concrete module types and the
// predicate's type, in place of a virtual Module interface and a
// std::function: each caller (the accelerator's per-cycle reference over
// its six modules, the serving session's three stages) instantiates its
// own loop with direct calls that the compiler can inline.
#pragma once

#include <algorithm>
#include <optional>

#include "sim/types.hpp"

namespace mann::sim {

class Simulator {
 public:
  /// Ticks `modules`, in argument order, until `done()` returns true.
  /// Returns cycles elapsed in this call. Throws std::runtime_error when
  /// `max_cycles` elapses first. Pick an order consistent with the
  /// dataflow direction (producers before consumers gives same-cycle
  /// forwarding through FIFOs, like combinational FIFO bypass).
  template <typename Done, typename... Modules>
  Cycle run_until(const Done& done, Cycle max_cycles, Modules&... modules) {
    const Cycle start = now_;
    while (!done()) {
      if (now_ - start >= max_cycles) {
        throw_watchdog("dataflow deadlock or runaway");
      }
      (modules.tick(), ...);
      ++now_;
    }
    return now_ - start;
  }

  /// Like run_until, but when every module reports a future
  /// next_activity(now) the clock jumps straight to the earliest one:
  /// each module's skip() bulk-accounts the gap, then advance() moves the
  /// clock. Cycle-exact (same state, stats and done() cycle as
  /// run_until) for modules that honour the next_activity/skip contract;
  /// identical to run_until when any module returns nullopt. The serving
  /// session steps on it to cross sparse request arrivals over billions
  /// of cycles in bounded host time.
  ///
  /// `limit` is an exclusive horizon: events before it run; when the
  /// next one is at or past it, the call returns without moving the
  /// clock, so a caller that learns of new input later can resume from
  /// the same cycle (done() is then still false). kNever runs until
  /// done() or the watchdog, including the "idle forever" one.
  template <typename Done, typename... Modules>
  Cycle run_events(const Done& done, Cycle max_cycles, Cycle limit,
                   Modules&... modules) {
    const Cycle start = now_;
    while (!done()) {
      if (now_ - start >= max_cycles) {
        throw_watchdog("dataflow deadlock or runaway");
      }

      // Quiescence check: if every module agrees nothing can happen
      // before some future cycle, jump straight there. A nullopt, or any
      // module due now, vetoes the jump (and spares asking the rest).
      Cycle horizon = kNever;
      const bool skippable =
          sizeof...(Modules) > 0 &&
          (... && later_activity(modules, now_, horizon));
      // Exclusive horizon: the next event (the skip target, or this very
      // cycle when nothing can be skipped) is at or past `limit`, so it
      // belongs to a later call. Stop before moving the clock to it.
      if (limit != kNever && (skippable ? horizon : now_) >= limit) {
        break;
      }
      if (skippable) {
        // Clamp so the watchdog still fires instead of wrapping past it.
        const Cycle gap = std::min(horizon, start + max_cycles) - now_;
        (modules.skip(gap), ...);
        advance(gap);
        if (now_ - start >= max_cycles) {
          throw_watchdog("all modules idle forever");
        }
      }

      (modules.tick(), ...);
      ++now_;
    }
    return now_ - start;
  }

  /// Moves the clock by `cycles` without ticking or skipping any module.
  /// run_events calls it after the modules' skip() accounting, and it is
  /// the replay hook for consumers that already know a stretch's exact
  /// cycle count from a previous simulation (the service-cycle cache
  /// replays memoized device runs this way: the clock lands exactly
  /// where a full re-simulation would, at zero cost).
  void advance(Cycle cycles) noexcept { now_ += cycles; }

  /// Cycles elapsed since construction: ticked, skipped or advanced.
  [[nodiscard]] Cycle now() const noexcept { return now_; }

 private:
  /// Whether `module`'s next activity lies after `now`; if so, lowers
  /// `horizon` to it.
  template <typename Module>
  static bool later_activity(const Module& module, Cycle now,
                             Cycle& horizon) {
    const std::optional<Cycle> next = module.next_activity(now);
    if (!next.has_value() || *next <= now) {
      return false;
    }
    horizon = std::min(horizon, *next);
    return true;
  }

  /// Throws the watchdog's std::runtime_error, naming `what` tripped it.
  [[noreturn]] static void throw_watchdog(const char* what);

  Cycle now_ = 0;
};

}  // namespace mann::sim
