#include "sim/fifo.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

namespace mann::sim {
namespace {

TEST(Fifo, RejectsZeroCapacity) {
  EXPECT_THROW(Fifo<int>("bad", 0), std::invalid_argument);
}

TEST(Fifo, StartsEmpty) {
  Fifo<int> f("f", 4);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.full());
  EXPECT_EQ(f.size(), 0U);
  EXPECT_EQ(f.peek(), nullptr);
  EXPECT_FALSE(f.try_pop().has_value());
}

TEST(Fifo, PushPopFifoOrder) {
  Fifo<int> f("f", 4);
  f.push(1);
  f.push(2);
  f.push(3);
  EXPECT_EQ(f.try_pop().value(), 1);
  EXPECT_EQ(f.try_pop().value(), 2);
  EXPECT_EQ(f.try_pop().value(), 3);
}

TEST(Fifo, FullBehaviour) {
  Fifo<int> f("f", 2);
  EXPECT_TRUE(f.try_push(1));
  EXPECT_TRUE(f.try_push(2));
  EXPECT_TRUE(f.full());
  EXPECT_FALSE(f.try_push(3));
  EXPECT_THROW(f.push(3), std::logic_error);
  EXPECT_EQ(f.stats().full_rejects, 2U);  // try_push + push both rejected
}

TEST(Fifo, PeekDoesNotConsume) {
  Fifo<int> f("f", 2);
  f.push(42);
  ASSERT_NE(f.peek(), nullptr);
  EXPECT_EQ(*f.peek(), 42);
  EXPECT_EQ(f.size(), 1U);
  EXPECT_EQ(f.try_pop().value(), 42);
}

TEST(Fifo, StatsTrackTraffic) {
  Fifo<int> f("f", 3);
  f.push(1);
  f.push(2);
  (void)f.try_pop();
  f.push(3);
  f.push(4);  // occupancy 3 now
  const FifoStats& st = f.stats();
  EXPECT_EQ(st.pushes, 4U);
  EXPECT_EQ(st.pops, 1U);
  EXPECT_EQ(st.max_occupancy, 3U);
}

TEST(Fifo, RingKeepsOrderThroughGrowthAndWrap) {
  // Seeded pushes and pops against a std::deque, at capacities below,
  // at and past the ring's first size, so the ring grows with its head
  // anywhere and wraps at every depth.
  for (const std::size_t capacity : {1U, 3U, 16U, 17U, 100U}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    Fifo<int> fifo("f", capacity);
    std::deque<int> reference;
    std::mt19937 rng(static_cast<unsigned>(capacity));
    for (int step = 0; step < 5'000; ++step) {
      // Lean toward pushing first, then toward popping, to fill and drain.
      const bool push = rng() % 100 < (step % 1'000 < 500 ? 70U : 30U);
      if (push) {
        const bool accepted = fifo.try_push(step);
        EXPECT_EQ(accepted, reference.size() < capacity);
        if (accepted) {
          reference.push_back(step);
        }
      } else {
        const std::optional<int> popped = fifo.try_pop();
        ASSERT_EQ(popped.has_value(), !reference.empty());
        if (popped) {
          EXPECT_EQ(*popped, reference.front());
          reference.pop_front();
        }
      }
      ASSERT_EQ(fifo.size(), reference.size());
      EXPECT_EQ(fifo.full(), reference.size() == capacity);
      if (!reference.empty()) {
        EXPECT_EQ(*fifo.peek(), reference.front());
      }
    }
  }
}

TEST(Fifo, BackpressureRoundTrip) {
  // Fill, drain, refill: capacity invariant maintained throughout.
  Fifo<int> f("f", 4);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(f.try_push(i));
    }
    EXPECT_TRUE(f.full());
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(f.try_pop().value(), i);
    }
    EXPECT_TRUE(f.empty());
  }
}

}  // namespace
}  // namespace mann::sim
