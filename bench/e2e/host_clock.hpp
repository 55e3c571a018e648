// Host time of the benchmark's timed work, scaled to a reference speed.
//
// The benchmark runs on a shared host. One process's speed there drifts
// by 10-25% over minutes and drops by up to 40% for seconds at a time,
// and CPU time moves with it: the timed work runs on one thread, so CPU
// time leaves out waits for a CPU but not a slower one. A median over one
// run cannot remove drift that lasts longer than the run.
//
// HostClock therefore samples the host's speed while it times. It runs a
// fixed probe, a small event loop this benchmark owns, when timing starts
// and after every ~50 ms of timed work. It scales the CPU time of each
// stretch between two probes by kProbeReferenceS over the mean of their
// times. The host's speed cancels and the program's stays: the probe is
// the same code on every commit, so no change to the program can speed
// it up, and it allocates nothing after construction, so the program's
// heap cannot slow it down. Probe time is left out of every total.
#pragma once

#include <chrono>
#include <memory>

#include "spans.hpp"

namespace mann::e2e {

/// CPU time of every thread of the process so far.
double cpu_seconds();

/// One stretch of host time three ways.
struct HostTime {
  double scaled_s = 0.0;  ///< CPU seconds at the probe's reference speed
  double cpu_s = 0.0;     ///< CPU seconds
  double wall_s = 0.0;    ///< wall seconds
};

HostTime operator-(const HostTime& a, const HostTime& b);

class HostClock {
 public:
  /// The probe's median time on the 4-core host the benchmark was sized
  /// on (4.84 ms over 245 probes). It only sets the scale of scaled_s.
  static constexpr double kProbeReferenceS = 0.0048;

  /// Probes once and starts timing. Each probe is a "bench.probe" span
  /// in `tracer`, so the host ledger can tell it from the program's time.
  explicit HostClock(Tracer& tracer);
  ~HostClock();
  HostClock(const HostClock&) = delete;
  HostClock& operator=(const HostClock&) = delete;

  /// Probes, ends the current stretch and returns the totals since the
  /// clock started. The difference of two laps is the time between them.
  HostTime lap();

  /// Cheap enough for every iteration of a timed loop: laps once the
  /// current stretch has lasted 50 ms.
  void tick() {
    if (Clock::now() - stretch_wall_ >= kStretch) {
      (void)lap();
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::chrono::milliseconds kStretch{50};
  class Probe;

  double probe();

  Tracer& tracer_;
  std::unique_ptr<Probe> probe_;
  HostTime total_;
  double last_probe_s_ = 0.0;
  double stretch_cpu_ = 0.0;
  Clock::time_point stretch_wall_;
};

}  // namespace mann::e2e
