// Seeded workload generator of the end-to-end benchmark.
//
// The benchmark owns its inputs: every arrival schedule and every story
// order comes from this file and the --seed it is given, never from
// serve::TrafficGenerator or serve::scale_trace, so a change to the
// serving stack cannot change what the benchmark asks of it.
//
// Schedules are open-loop in simulated time. A schedule of N arrivals at
// mean interarrival m is conditioned on its count and span: N arrival
// times are drawn independently over [0, N*m) with density proportional
// to the process's rate shape (flat for Poisson, sinusoidal for diurnal,
// an on/off square wave for bursty) and sorted. This is exactly the
// inhomogeneous Poisson process given N arrivals in the window, so the
// shape is random while the count and mean rate hold for every seed.
// Tasks are uniform over the workload's task mix and tenants follow the
// stated traffic shares, each from its own RNG stream.
//
// No <random> distribution is used (their output is implementation-
// defined); the only libm calls are log1p and sin, so a seed gives the same
// bytes on every platform with the same libm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mann::e2e {

/// Deterministic 64-bit generator (xoshiro256** seeded by splitmix64).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next() noexcept;
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() noexcept;
  /// Exponential with the given mean.
  double exponential(double mean) noexcept;

 private:
  std::uint64_t s_[4];
};

enum class Process : std::uint8_t { kPoisson, kOnOff, kDiurnal };

struct ArrivalSpec {
  Process process = Process::kPoisson;
  std::size_t requests = 0;
  double mean_interarrival_cycles = 0.0;
  /// Tasks are drawn uniformly from suite tasks [0, tasks).
  std::size_t tasks = 0;
  /// Traffic share per tenant (empty = everything is tenant 0).
  std::vector<double> tenant_shares;
  /// kDiurnal: rate ∝ 1 + amplitude * sin(2πt / period).
  double diurnal_amplitude = 0.0;
  double diurnal_period_cycles = 0.0;
  /// kOnOff: alternating on/off spells with exponential lengths; the
  /// rate while on is `on_off_rate_ratio` times the rate while off.
  double on_mean_cycles = 0.0;
  double off_mean_cycles = 0.0;
  double on_off_rate_ratio = 1.0;
};

struct Arrival {
  std::uint64_t cycle = 0;
  std::uint32_t task = 0;
  std::uint32_t tenant = 0;
};

/// One benchmark workload: its name and — for the serving and cluster
/// workloads — its arrival schedule. paper_table1 has no schedule; its
/// seed only orders each task's test stories.
struct WorkloadSpec {
  std::string name;
  bool has_schedule = false;
  ArrivalSpec arrivals;
};

/// The five workloads, in benchmark order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

[[nodiscard]] std::vector<Arrival> make_schedule(const ArrivalSpec& spec,
                                                 std::uint64_t seed);

/// A seeded permutation of [0, n); `stream` separates independent
/// permutations drawn from one seed (one per task).
[[nodiscard]] std::vector<std::uint32_t> story_order(std::size_t n,
                                                     std::uint64_t seed,
                                                     std::uint64_t stream);

/// Mean gap between consecutive arrivals, in cycles.
[[nodiscard]] double mean_interarrival(const std::vector<Arrival>& schedule);

/// Checks the generator contract on every workload: `seed` gives a
/// byte-identical schedule twice, seed + 1 a different one, and each
/// schedule has its stated count and mean rate within 2%. Prints one line
/// per check; returns the number of failures.
[[nodiscard]] int selftest(std::uint64_t seed);

}  // namespace mann::e2e
