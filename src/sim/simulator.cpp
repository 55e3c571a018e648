#include "sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace mann::sim {

void Simulator::add_module(Module& module) { modules_.push_back(&module); }

Cycle Simulator::run_until(const std::function<bool()>& done,
                           Cycle max_cycles) {
  const Cycle start = now_;
  while (!done()) {
    if (now_ - start >= max_cycles) {
      throw std::runtime_error(
          "Simulator: watchdog expired — dataflow deadlock or runaway");
    }
    for (Module* m : modules_) {
      m->tick();
    }
    ++now_;
  }
  return now_ - start;
}

Cycle Simulator::run_events(const std::function<bool()>& done,
                            Cycle max_cycles, Cycle limit) {
  const Cycle start = now_;
  while (!done()) {
    if (now_ - start >= max_cycles) {
      throw std::runtime_error(
          "Simulator: watchdog expired — dataflow deadlock or runaway");
    }

    // Quiescence check: if every module agrees nothing can happen before
    // some future cycle, jump straight there. A nullopt, or any module
    // due now, vetoes the jump (and spares asking the rest).
    Cycle horizon = kNever;
    bool skippable = !modules_.empty();
    for (const Module* m : modules_) {
      const std::optional<Cycle> next = m->next_activity(now_);
      if (!next.has_value() || *next <= now_) {
        skippable = false;
        break;
      }
      horizon = std::min(horizon, *next);
    }
    // Exclusive horizon: the next event (the skip target, or this very
    // cycle when nothing can be skipped) is at or past `limit`, so it
    // belongs to a later call. Stop before moving the clock to it.
    if (limit != kNever && (skippable ? horizon : now_) >= limit) {
      break;
    }
    if (skippable) {
      // Clamp so the watchdog still fires instead of wrapping past it.
      const Cycle gap = std::min(horizon, start + max_cycles) - now_;
      for (Module* m : modules_) {
        m->skip(gap);
      }
      advance(gap);
      if (now_ - start >= max_cycles) {
        throw std::runtime_error(
            "Simulator: watchdog expired — all modules idle forever");
      }
    }

    for (Module* m : modules_) {
      m->tick();
    }
    ++now_;
  }
  return now_ - start;
}

}  // namespace mann::sim
