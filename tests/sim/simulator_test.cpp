#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/module.hpp"

namespace mann::sim {
namespace {

/// Counts its own ticks; optionally marks itself busy every other cycle.
class CountingModule final : public Module {
 public:
  explicit CountingModule(std::string name) : Module(std::move(name)) {}

  void tick() {
    ++ticks;
    if (ticks % 2 == 0) {
      mark_busy();
    } else {
      mark_stalled();
    }
    ops().add += 3;
  }

  Cycle ticks = 0;
};

TEST(Simulator, RunsUntilPredicate) {
  CountingModule m("m");
  Simulator sim;
  const Cycle elapsed =
      sim.run_until([&] { return m.ticks >= 10; }, 1000, m);
  EXPECT_EQ(elapsed, 10U);
  EXPECT_EQ(sim.now(), 10U);
}

TEST(Simulator, TicksModulesInRegistrationOrder) {
  std::vector<int> order;
  class Probe final : public Module {
   public:
    Probe(std::string name, std::vector<int>& log, int id)
        : Module(std::move(name)), log_(log), id_(id) {}
    void tick() { log_.push_back(id_); }

   private:
    std::vector<int>& log_;
    int id_;
  };
  Probe a("a", order, 1);
  Probe b("b", order, 2);
  Simulator sim;
  (void)sim.run_until([&] { return order.size() >= 4; }, 100, a, b);
  ASSERT_EQ(order.size(), 4U);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 2);
}

TEST(Simulator, WatchdogThrows) {
  CountingModule m("m");
  Simulator sim;
  EXPECT_THROW((void)sim.run_until([] { return false; }, 50, m),
               std::runtime_error);
}

TEST(Simulator, StatsAccumulate) {
  CountingModule m("m");
  Simulator sim;
  (void)sim.run_until([&] { return m.ticks >= 8; }, 100, m);
  EXPECT_EQ(m.stats().busy_cycles, 4U);
  EXPECT_EQ(m.stats().stall_cycles, 4U);
  EXPECT_EQ(m.stats().ops.add, 24U);
}

TEST(Simulator, SequentialRunsAccumulateTime) {
  CountingModule m("m");
  Simulator sim;
  (void)sim.run_until([&] { return m.ticks >= 3; }, 100, m);
  (void)sim.run_until([&] { return m.ticks >= 7; }, 100, m);
  EXPECT_EQ(sim.now(), 7U);
}

TEST(Simulator, ImmediateDonePredicateRunsZeroCycles) {
  CountingModule m("m");
  Simulator sim;
  EXPECT_EQ(sim.run_until([] { return true; }, 10, m), 0U);
  EXPECT_EQ(m.ticks, 0U);
}

/// Acts only at scheduled cycles; between them it reports the next one,
/// letting run_events jump the gap.
class EventModule final : public Module {
 public:
  EventModule(std::string name, const Simulator& clock,
              std::vector<Cycle> events)
      : Module(std::move(name)), clock_(clock), events_(std::move(events)) {}

  void tick() {
    ++ticks;
    if (next_ < events_.size() && events_[next_] <= clock_.now()) {
      fired.push_back(clock_.now());
      ++next_;
    }
  }

  [[nodiscard]] std::optional<Cycle> next_activity(Cycle /*now*/) const {
    return next_ < events_.size() ? events_[next_] : kNever;
  }

  Cycle ticks = 0;
  std::vector<Cycle> fired;

 private:
  const Simulator& clock_;
  std::vector<Cycle> events_;
  std::size_t next_ = 0;
};

TEST(Simulator, RunEventsSkipsQuiescentGaps) {
  Simulator sim;
  EventModule m("m", sim, {5, 1000, 100'000});
  (void)sim.run_events([&] { return m.fired.size() >= 3; }, 1'000'000,
                       kNever, m);
  // Every event observed at its exact cycle…
  ASSERT_EQ(m.fired.size(), 3U);
  EXPECT_EQ(m.fired[0], 5U);
  EXPECT_EQ(m.fired[1], 1000U);
  EXPECT_EQ(m.fired[2], 100'000U);
  // …but the clock jumped the dead stretches instead of ticking them.
  EXPECT_LT(m.ticks, 10U);
  EXPECT_EQ(sim.now(), 100'001U);
}

TEST(Simulator, RunEventsFallsBackWhenAnyModuleIsUnskippable) {
  Simulator sim;
  EventModule events("e", sim, {50});
  CountingModule dense("d");  // next_activity() = nullopt: tick every cycle
  (void)sim.run_events([&] { return !events.fired.empty(); }, 1000, kNever,
                       events, dense);
  EXPECT_EQ(dense.ticks, 51U);  // cycles 0..50, no skipping
  EXPECT_EQ(sim.now(), 51U);
}

TEST(Simulator, RunEventsWatchdogStillFires) {
  Simulator sim;
  EventModule m("m", sim, {});  // permanently idle, done never true
  EXPECT_THROW((void)sim.run_events([] { return false; }, 100, kNever, m),
               std::runtime_error);
}

TEST(Simulator, RunEventsHoldsAtAnExclusiveLimit) {
  Simulator sim;
  EventModule m("m", sim, {5, 1000, 100'000});
  const auto done = [&] { return m.fired.size() >= 3; };

  // Events before the limit run; the next one sits exactly at it, so
  // the call returns with the clock where the last event left it.
  EXPECT_EQ(sim.run_events(done, 1'000'000, 1000, m), 6U);
  EXPECT_EQ(m.fired, (std::vector<Cycle>{5}));
  EXPECT_EQ(sim.now(), 6U);
  // Asking again moves nothing.
  EXPECT_EQ(sim.run_events(done, 1'000'000, 1000, m), 0U);
  EXPECT_EQ(sim.now(), 6U);
  // A later limit resumes the same timeline, then kNever runs to done().
  (void)sim.run_events(done, 1'000'000, 1001, m);
  EXPECT_EQ(m.fired, (std::vector<Cycle>{5, 1000}));
  EXPECT_EQ(sim.now(), 1001U);
  (void)sim.run_events(done, 1'000'000, kNever, m);
  EXPECT_EQ(m.fired, (std::vector<Cycle>{5, 1000, 100'000}));
  EXPECT_EQ(sim.now(), 100'001U);

  // Work due every cycle stops at the limit too.
  Simulator dense_sim;
  CountingModule dense("d");
  EXPECT_EQ(dense_sim.run_events([] { return false; }, 1000, 10, dense), 10U);
  EXPECT_EQ(dense.ticks, 10U);
}

TEST(Simulator, RunEventsLimitHoldsIdleModulesButKNeverTrips) {
  Simulator sim;
  EventModule m("m", sim, {});  // permanently idle, done never true
  // Under a limit, "idle forever" is only "nothing before the limit".
  EXPECT_EQ(sim.run_events([] { return false; }, 100, 50, m), 0U);
  EXPECT_EQ(sim.now(), 0U);
  // Without one, the watchdog still fires at its end.
  try {
    (void)sim.run_events([] { return false; }, 100, kNever, m);
    ADD_FAILURE() << "expected the idle-forever watchdog";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("idle forever"), std::string::npos);
  }
  EXPECT_EQ(sim.now(), 100U);
}

TEST(Simulator, AdvanceReplaysTimeWithoutTicking) {
  Simulator sim;
  CountingModule counting("count");

  // The cheap timing-replay path: the clock lands exactly where a full
  // simulation of the recorded stretch would, but no module runs.
  sim.advance(1'000);
  EXPECT_EQ(sim.now(), 1'000U);
  EXPECT_EQ(counting.ticks, 0U);

  // Replayed and simulated time compose on one clock.
  (void)sim.run_until([&] { return counting.ticks >= 5; }, 100, counting);
  EXPECT_EQ(sim.now(), 1'005U);
}

/// Works through a list of jobs, each busy for its length and completing
/// on the tick that takes the countdown from 1 to 0; stalls once the list
/// is exhausted. Bulk-accounts skipped countdown and stall cycles, and
/// records any skip that would swallow a completion tick.
class CountdownModule final : public Module {
 public:
  CountdownModule(std::string name, const Simulator& clock,
                  std::vector<Cycle> jobs)
      : Module(std::move(name)), clock_(clock), jobs_(std::move(jobs)) {
    start_next();
  }

  void tick() {
    ++ticks;
    if (busy_ == 0) {
      mark_stalled();
      return;
    }
    mark_busy();
    if (--busy_ == 0) {
      completed.push_back(clock_.now());
      start_next();
    }
  }

  [[nodiscard]] std::optional<Cycle> next_activity(Cycle now) const {
    return busy_ > 0 ? now + busy_ - 1 : kNever;
  }

  void skip(Cycle cycles) {
    if (busy_ > 0 && cycles >= busy_) {
      crossed_activity = true;
    }
    const Cycle counted = std::min(cycles, busy_);
    busy_ -= counted;
    mark_busy(counted);
    mark_stalled(cycles - counted);
  }

  Cycle ticks = 0;
  std::vector<Cycle> completed;
  bool crossed_activity = false;

 private:
  void start_next() {
    if (next_ < jobs_.size()) {
      busy_ = jobs_[next_++];
    }
  }

  const Simulator& clock_;
  std::vector<Cycle> jobs_;
  std::size_t next_ = 0;
  Cycle busy_ = 0;
};

TEST(Simulator, SkipAccountingMatchesTickedAccounting) {
  const std::vector<Cycle> jobs_a = {7, 3, 50, 1, 1, 400};
  const std::vector<Cycle> jobs_b = {20, 20, 1, 90};
  const auto run = [&](bool events) {
    Simulator sim;
    CountdownModule a("a", sim, jobs_a);
    CountdownModule b("b", sim, jobs_b);
    const auto done = [&] {
      return a.completed.size() == jobs_a.size() &&
             b.completed.size() == jobs_b.size();
    };
    const Cycle elapsed = events ? sim.run_events(done, 10'000, kNever, a, b)
                                 : sim.run_until(done, 10'000, a, b);
    return std::tuple(elapsed, a.stats().busy_cycles, a.stats().stall_cycles,
                      b.stats().busy_cycles, b.stats().stall_cycles,
                      a.completed, b.completed, a.ticks + b.ticks,
                      a.crossed_activity || b.crossed_activity);
  };
  const auto ticked = run(false);
  const auto skipped = run(true);
  // Same clock, same busy/stall split, same completion cycles…
  EXPECT_EQ(std::get<0>(skipped), std::get<0>(ticked));
  EXPECT_EQ(std::get<1>(skipped), std::get<1>(ticked));
  EXPECT_EQ(std::get<2>(skipped), std::get<2>(ticked));
  EXPECT_EQ(std::get<3>(skipped), std::get<3>(ticked));
  EXPECT_EQ(std::get<4>(skipped), std::get<4>(ticked));
  EXPECT_EQ(std::get<5>(skipped), std::get<5>(ticked));
  EXPECT_EQ(std::get<6>(skipped), std::get<6>(ticked));
  EXPECT_EQ(std::get<4>(ticked), 462U - 131U);  // b idles after its jobs
  // …with a fraction of the ticks, and no skip ever swallowed the tick
  // on which a module's countdown completes.
  EXPECT_LT(std::get<7>(skipped), std::get<7>(ticked) / 10);
  EXPECT_FALSE(std::get<8>(skipped));
}

TEST(Simulator, SkipStopsAtTheEarliestModulesActivity) {
  Simulator sim;
  CountdownModule slow("slow", sim, {1000});
  EventModule fast("fast", sim, {10, 20});
  (void)sim.run_events([&] { return !slow.completed.empty(); }, 10'000,
                       kNever, slow, fast);
  EXPECT_EQ(fast.fired, (std::vector<Cycle>{10, 20}));
  EXPECT_EQ(slow.completed, (std::vector<Cycle>{999}));
  EXPECT_EQ(slow.stats().busy_cycles, 1000U);
  EXPECT_FALSE(slow.crossed_activity);
  EXPECT_EQ(sim.now(), 1000U);
}

TEST(OpCounts, AccumulateAndTotal) {
  OpCounts a;
  a.mac = 5;
  a.exp = 2;
  OpCounts b;
  b.mac = 1;
  b.div = 7;
  a += b;
  EXPECT_EQ(a.mac, 6U);
  EXPECT_EQ(a.div, 7U);
  EXPECT_EQ(a.total(), 6U + 2U + 7U);
}

}  // namespace
}  // namespace mann::sim
