#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>

namespace mann::e2e {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// Independent streams of one seed: arrival times, the on/off envelope,
// task draws and tenant draws never share a generator, so e.g. adding a
// tenant registry leaves the arrival times untouched.
constexpr std::uint64_t kTimeStream = 1;
constexpr std::uint64_t kEnvelopeStream = 2;
constexpr std::uint64_t kTaskStream = 3;
constexpr std::uint64_t kTenantStream = 4;
constexpr std::uint64_t kStoryStreamBase = 100;

/// Rate shape of a process, normalized to a maximum of 1 (the rejection
/// sampler's acceptance probability).
class RateShape {
 public:
  RateShape(const ArrivalSpec& spec, double horizon, std::uint64_t seed)
      : spec_(spec) {
    if (spec.process != Process::kOnOff) {
      return;
    }
    Rng rng(seed, kEnvelopeStream);
    const double on_share =
        spec.on_mean_cycles / (spec.on_mean_cycles + spec.off_mean_cycles);
    bool on = rng.uniform() < on_share;
    double t = 0.0;
    while (t < horizon) {
      t += rng.exponential(on ? spec.on_mean_cycles : spec.off_mean_cycles);
      spell_ends_.push_back(t);
      spell_on_.push_back(on);
      on = !on;
    }
  }

  [[nodiscard]] double at(double t) const {
    switch (spec_.process) {
      case Process::kPoisson:
        return 1.0;
      case Process::kDiurnal:
        return (1.0 + spec_.diurnal_amplitude *
                          std::sin(2.0 * std::numbers::pi * t /
                                   spec_.diurnal_period_cycles)) /
               (1.0 + spec_.diurnal_amplitude);
      case Process::kOnOff: {
        const auto it =
            std::upper_bound(spell_ends_.begin(), spell_ends_.end(), t);
        const bool on =
            it == spell_ends_.end() ||
            spell_on_[static_cast<std::size_t>(it - spell_ends_.begin())];
        return on ? 1.0 : 1.0 / spec_.on_off_rate_ratio;
      }
    }
    return 1.0;
  }

 private:
  const ArrivalSpec& spec_;
  std::vector<double> spell_ends_;
  std::vector<bool> spell_on_;
};

// The reasons below are the workloads' "why" lines in BENCHMARK.json.
std::vector<WorkloadSpec> build_catalogue() {
  std::vector<WorkloadSpec> all;

  // The paper's Table I protocol: device simulation does the host work,
  // and only this workload yields the paper's headline numbers.
  WorkloadSpec table1;
  table1.name = "paper_table1";
  all.push_back(table1);

  // 20 models churn 4 devices under saturating load, so batches rarely
  // repeat: device simulation and scheduling share host time.
  WorkloadSpec mix;
  mix.name = "serve_mix20";
  mix.has_schedule = true;
  mix.arrivals.process = Process::kPoisson;
  mix.arrivals.requests = 4'000;
  mix.arrivals.mean_interarrival_cycles = 500.0;
  mix.arrivals.tasks = 20;
  all.push_back(mix);

  // Two tasks below capacity repeat full batches, so the cycle cache
  // answers most lookups and the device simulator barely runs.
  WorkloadSpec hot;
  hot.name = "serve_hot";
  hot.has_schedule = true;
  hot.arrivals.process = Process::kPoisson;
  hot.arrivals.requests = 40'000;
  hot.arrivals.mean_interarrival_cycles = 1'000.0;
  hot.arrivals.tasks = 2;
  all.push_back(hot);

  // The only workload where admission refuses work: it catches a change
  // that buys latency by shedding more.
  WorkloadSpec overload;
  overload.name = "serve_overload_tenants";
  overload.has_schedule = true;
  overload.arrivals.process = Process::kOnOff;
  // Sized so that about 5,000 requests complete after the quota sheds,
  // which leaves at least 40 latency samples beyond p99.
  overload.arrivals.requests = 10'000;
  overload.arrivals.mean_interarrival_cycles = 1'200.0;
  overload.arrivals.tasks = 20;
  overload.arrivals.tenant_shares = {1.0, 1.0, 4.0};
  overload.arrivals.on_mean_cycles = 30'000.0;
  overload.arrivals.off_mean_cycles = 90'000.0;
  overload.arrivals.on_off_rate_ratio = 10.0;
  all.push_back(overload);

  // Jittered diurnal arrivals make batches unique, so routing, lockstep
  // stepping and device simulation dominate.
  WorkloadSpec fleet;
  fleet.name = "cluster_diurnal_10x";
  fleet.has_schedule = true;
  fleet.arrivals.process = Process::kDiurnal;
  fleet.arrivals.requests = 20'000;
  fleet.arrivals.mean_interarrival_cycles = 200.0;
  fleet.arrivals.tasks = 20;
  fleet.arrivals.tenant_shares = {1.0, 1.0, 1.0};
  fleet.arrivals.diurnal_amplitude = 0.6;
  fleet.arrivals.diurnal_period_cycles = 2.0e6;
  all.push_back(fleet);

  return all;
}

std::vector<unsigned char> schedule_bytes(const std::vector<Arrival>& s) {
  std::vector<unsigned char> bytes;
  bytes.reserve(s.size() * 16);
  for (const Arrival& a : s) {
    for (const std::uint64_t word :
         {a.cycle, static_cast<std::uint64_t>(a.task) << 32 | a.tenant}) {
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<unsigned char>(word >> (8 * b)));
      }
    }
  }
  return bytes;
}

int check(bool ok, const std::string& what) {
  std::printf("selftest %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xD1B54A32D192ED03ULL);
  for (std::uint64_t& word : s_) {
    word = splitmix64(state);
  }
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double mean) noexcept {
  return -mean * std::log1p(-uniform());
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> catalogue = build_catalogue();
  return catalogue;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<Arrival> make_schedule(const ArrivalSpec& spec,
                                   std::uint64_t seed) {
  const double horizon =
      static_cast<double>(spec.requests) * spec.mean_interarrival_cycles;
  const RateShape shape(spec, horizon, seed);

  Rng time_rng(seed, kTimeStream);
  std::vector<double> times;
  times.reserve(spec.requests);
  while (times.size() < spec.requests) {
    const double t = time_rng.uniform() * horizon;
    if (time_rng.uniform() < shape.at(t)) {
      times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());

  double share_total = 0.0;
  for (const double share : spec.tenant_shares) {
    share_total += share;
  }
  Rng task_rng(seed, kTaskStream);
  Rng tenant_rng(seed, kTenantStream);
  std::vector<Arrival> schedule(spec.requests);
  for (std::size_t i = 0; i < spec.requests; ++i) {
    Arrival& a = schedule[i];
    a.cycle = static_cast<std::uint64_t>(times[i]);
    a.task = static_cast<std::uint32_t>(
        task_rng.uniform() * static_cast<double>(spec.tasks));
    if (!spec.tenant_shares.empty()) {
      double u = tenant_rng.uniform() * share_total;
      a.tenant = static_cast<std::uint32_t>(spec.tenant_shares.size() - 1);
      for (std::size_t t = 0; t < spec.tenant_shares.size(); ++t) {
        if (u < spec.tenant_shares[t]) {
          a.tenant = static_cast<std::uint32_t>(t);
          break;
        }
        u -= spec.tenant_shares[t];
      }
    }
  }
  return schedule;
}

std::vector<std::uint32_t> story_order(std::size_t n, std::uint64_t seed,
                                       std::uint64_t stream) {
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  Rng rng(seed, kStoryStreamBase + stream);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform() *
                                            static_cast<double>(i));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

double mean_interarrival(const std::vector<Arrival>& schedule) {
  if (schedule.size() < 2) {
    return 0.0;
  }
  return static_cast<double>(schedule.back().cycle - schedule.front().cycle) /
         static_cast<double>(schedule.size() - 1);
}

int selftest(std::uint64_t seed) {
  int failures = 0;
  const std::uint64_t other = seed + 1;
  for (const WorkloadSpec& w : workloads()) {
    if (!w.has_schedule) {
      constexpr std::size_t kStories = 200;
      const auto a = story_order(kStories, seed, 0);
      std::vector<std::uint32_t> sorted = a;
      std::sort(sorted.begin(), sorted.end());
      bool permutation = true;
      for (std::size_t i = 0; i < kStories; ++i) {
        permutation = permutation && sorted[i] == i;
      }
      failures += check(permutation, w.name + ": story order is a "
                                              "permutation of 200");
      failures += check(a == story_order(kStories, seed, 0),
                        w.name + ": same seed, identical order");
      failures += check(a != story_order(kStories, other, 0),
                        w.name + ": other seed, different order");
      continue;
    }
    const ArrivalSpec& spec = w.arrivals;
    const std::vector<Arrival> s = make_schedule(spec, seed);
    failures += check(schedule_bytes(s) ==
                          schedule_bytes(make_schedule(spec, seed)),
                      w.name + ": same seed, byte-identical schedule");
    failures += check(schedule_bytes(s) !=
                          schedule_bytes(make_schedule(spec, other)),
                      w.name + ": other seed, different schedule");
    failures += check(s.size() == spec.requests,
                      w.name + ": " + std::to_string(s.size()) + " of " +
                          std::to_string(spec.requests) + " arrivals");
    const double mean = mean_interarrival(s);
    const double error =
        std::abs(mean / spec.mean_interarrival_cycles - 1.0);
    char line[160];
    std::snprintf(line, sizeof(line),
                  ": mean interarrival %.1f vs %.1f cycles (%.2f%%)",
                  mean, spec.mean_interarrival_cycles, error * 100.0);
    failures += check(error <= 0.02, w.name + line);
    bool in_range = true;
    for (std::size_t i = 0; i < s.size(); ++i) {
      in_range = in_range && s[i].task < spec.tasks &&
                 s[i].tenant < std::max<std::size_t>(
                                   1, spec.tenant_shares.size()) &&
                 (i == 0 || s[i - 1].cycle <= s[i].cycle);
    }
    failures += check(in_range, w.name + ": sorted, tasks and tenants in "
                                         "range");
  }
  return failures;
}

}  // namespace mann::e2e
