// Bounded FIFO with back-pressure — the stream joints of the dataflow
// architecture (FIFO_IN, FIFO_OUT and the internal module queues in Fig. 1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

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
/// is a dropped word, i.e. a design bug. The items live in a ring that
/// grows as pushes need it, to at most the capacity, and is then reused,
/// so a queue that has reached its working depth allocates nothing.
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
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ >= capacity_; }

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
    if (size_ == ring_.size()) {
      grow();
    }
    std::size_t tail = head_ + size_;
    if (tail >= ring_.size()) {
      tail -= ring_.size();
    }
    ring_[tail] = std::move(item);
    ++size_;
    ++stats_.pushes;
    stats_.max_occupancy = std::max(stats_.max_occupancy, size_);
    return true;
  }

  /// Pops the head if present.
  [[nodiscard]] std::optional<T> try_pop() {
    if (size_ == 0) {
      return std::nullopt;
    }
    T item = std::move(ring_[head_]);
    if (++head_ == ring_.size()) {
      head_ = 0;
    }
    --size_;
    ++stats_.pops;
    return item;
  }

  /// Peeks without consuming.
  [[nodiscard]] const T* peek() const noexcept {
    return size_ == 0 ? nullptr : &ring_[head_];
  }

  [[nodiscard]] const FifoStats& stats() const noexcept { return stats_; }

 private:
  /// A full ring below the capacity doubles (to at most the capacity),
  /// its items moved to the front in queue order.
  void grow() {
    std::vector<T> grown(
        std::min(capacity_, std::max<std::size_t>(2 * ring_.size(), 16)));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    }
    ring_.swap(grown);
    head_ = 0;
  }

  std::string name_;
  std::size_t capacity_;
  std::vector<T> ring_;   ///< the items from head_, wrapping at the end
  std::size_t head_ = 0;  ///< index of the oldest item
  std::size_t size_ = 0;
  FifoStats stats_;
};

}  // namespace mann::sim
