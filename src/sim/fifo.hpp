// Bounded FIFO with back-pressure — the stream joints of the dataflow
// architecture (FIFO_IN, FIFO_OUT and the internal module queues in Fig. 1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/types.hpp"

namespace mann::sim {

/// Occupancy statistics of a FIFO, for the fifo-depth ablation bench and
/// the serving-runtime queue reports (both aggregate with operator+=, so
/// every queue in the system is introspected through one code path).
struct FifoStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t full_rejects = 0;  ///< push attempts while full
  std::size_t max_occupancy = 0;

  FifoStats& operator+=(const FifoStats& o) noexcept {
    pushes += o.pushes;
    pops += o.pops;
    full_rejects += o.full_rejects;
    max_occupancy = std::max(max_occupancy, o.max_occupancy);
    return *this;
  }
};

/// Single-clock bounded queue. Producers must check full() (or use
/// try_push) — pushing into a full FIFO throws, because in hardware that
/// is a dropped word, i.e. a design bug.
template <typename T>
class Fifo {
 public:
  explicit Fifo(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity) {
    if (capacity_ == 0) {
      throw std::invalid_argument("Fifo: capacity must be > 0");
    }
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] bool full() const noexcept {
    return items_.size() >= capacity_;
  }

  /// Pushes or throws std::logic_error when full.
  void push(T item) {
    if (!try_push(std::move(item))) {
      throw std::logic_error("Fifo " + name_ + ": push while full");
    }
  }

  /// Pushes unless full; returns whether the word was accepted.
  [[nodiscard]] bool try_push(T item) {
    if (full()) {
      ++stats_.full_rejects;
      return false;
    }
    items_.push_back(std::move(item));
    ++stats_.pushes;
    stats_.max_occupancy = std::max(stats_.max_occupancy, items_.size());
    return true;
  }

  /// Pops the head if present.
  [[nodiscard]] std::optional<T> try_pop() {
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    ++stats_.pops;
    return item;
  }

  /// Peeks without consuming.
  [[nodiscard]] const T* peek() const noexcept {
    return items_.empty() ? nullptr : &items_.front();
  }

  /// Accounts `cycles` cycles of a queue one item short of full, in each
  /// of which one push fills it and one pop drains the head, plus
  /// `full_rejects` pushes refused in between. The contents stay as they
  /// are, which is exact only when every queued item equals every pushed
  /// one. HOST_LINK's steady model upload is the one caller: FIFO_IN then
  /// holds nothing but identical kModelWord words.
  void account_push_pop(std::uint64_t cycles,
                        std::uint64_t full_rejects) noexcept {
    if (cycles == 0) {
      return;
    }
    stats_.pushes += cycles;
    stats_.pops += cycles;
    stats_.full_rejects += full_rejects;
    stats_.max_occupancy = std::max(stats_.max_occupancy, items_.size() + 1);
  }

  [[nodiscard]] const FifoStats& stats() const noexcept { return stats_; }

 private:
  std::string name_;
  std::size_t capacity_;
  std::deque<T> items_;
  FifoStats stats_;
};

}  // namespace mann::sim
