#include "host_clock.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace mann::e2e {

namespace {

// The probe's modules do the kinds of work the simulator and the serving
// stack do, so a host that slows the program slows the probe alike:
// virtual calls, fractional credit, ring queues, buffers of varying
// length and scattered table updates.
class Module {
 public:
  virtual ~Module() = default;
  virtual std::uint64_t step(std::uint64_t x) = 0;
};

/// Earns 0.37 words of credit per step and moves words through a ring.
class Link final : public Module {
 public:
  std::uint64_t step(std::uint64_t x) override {
    credit_ += 0.37;
    if (credit_ >= 1.0) {
      credit_ -= 1.0;
      ring_[tail_++ % kRing] = static_cast<std::uint32_t>(x);
      ++size_;
    }
    if (size_ > 16) {
      x ^= ring_[head_++ % kRing];
      --size_;
    }
    return x * 0x9E3779B97F4A7C15ULL + 1;
  }

 private:
  static constexpr std::size_t kRing = 32;
  std::array<std::uint32_t, kRing> ring_{};
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
  double credit_ = 0.0;
};

/// Now and then refills a buffer of a new length, and reads one word.
class Buffer final : public Module {
 public:
  Buffer() { words_.reserve(kMaxWords); }
  std::uint64_t step(std::uint64_t x) override {
    if ((x >> 7) % 11 == 0) {
      words_.assign(8 + (x >> 20) % (kMaxWords - 8),
                    static_cast<std::uint32_t>(x));
    }
    const std::uint64_t word =
        words_.empty() ? 1 : words_[(x >> 3) % words_.size()];
    return (x ^ word) * 6364136223846793005ULL + 1442695040888963407ULL;
  }

 private:
  static constexpr std::size_t kMaxWords = 208;
  std::vector<std::uint32_t> words_;
};

}  // namespace

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostTime operator-(const HostTime& a, const HostTime& b) {
  return {a.scaled_s - b.scaled_s, a.cpu_s - b.cpu_s, a.wall_s - b.wall_s};
}

/// A discrete-event loop over 64 modules: pop the earliest event, step
/// its module, update a 32 KB table, schedule the next event.
class HostClock::Probe {
 public:
  Probe() {
    for (std::size_t m = 0; m < kModules; ++m) {
      if (m % 2 == 0) {
        modules_.push_back(std::make_unique<Buffer>());
      } else {
        modules_.push_back(std::make_unique<Link>());
      }
    }
    events_.reserve(kModules);
    table_.assign(kTableWords, 0);
    // Fault in every page and settle the module state before timing.
    (void)run();
    (void)run();
  }

  /// CPU seconds of one fixed pass.
  double run() {
    const double start = cpu_seconds();
    const std::greater<> later;
    events_.clear();
    for (std::uint32_t m = 0; m < kModules; ++m) {
      events_.emplace_back(m, m);
      std::push_heap(events_.begin(), events_.end(), later);
    }
    std::uint64_t x = 12345;
    for (int i = 0; i < kEvents; ++i) {
      std::pop_heap(events_.begin(), events_.end(), later);
      const auto [cycle, module] = events_.back();
      events_.pop_back();
      x = modules_[module]->step(x);
      table_[x % kTableWords] += module;
      events_.emplace_back(cycle + 1 + (x & 63),
                           static_cast<std::uint32_t>((x >> 11) % kModules));
      std::push_heap(events_.begin(), events_.end(), later);
    }
    sink_ = x;
    return cpu_seconds() - start;
  }

 private:
  static constexpr std::size_t kModules = 64;
  static constexpr std::size_t kTableWords = 8192;
  static constexpr int kEvents = 70'000;

  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> events_;
  std::vector<std::uint32_t> table_;
  volatile std::uint64_t sink_ = 0;  ///< keeps the loop from being elided
};

HostClock::HostClock(Tracer& tracer)
    : tracer_(tracer), probe_(std::make_unique<Probe>()) {
  last_probe_s_ = probe();
  stretch_cpu_ = cpu_seconds();
  stretch_wall_ = Clock::now();
}

HostClock::~HostClock() = default;

HostTime HostClock::lap() {
  const double cpu = cpu_seconds();
  const Clock::time_point wall = Clock::now();
  const double probe_s = probe();
  const double stretch_cpu = cpu - stretch_cpu_;
  total_.cpu_s += stretch_cpu;
  total_.wall_s += std::chrono::duration<double>(wall - stretch_wall_).count();
  total_.scaled_s +=
      stretch_cpu * kProbeReferenceS / ((last_probe_s_ + probe_s) / 2.0);
  last_probe_s_ = probe_s;
  stretch_cpu_ = cpu_seconds();
  stretch_wall_ = Clock::now();
  return total_;
}

double HostClock::probe() {
  Scope span(tracer_, "bench.probe");
  return probe_->run();
}

}  // namespace mann::e2e
