#include "sim/fifo.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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

TEST(Fifo, AccountPushPopMatchesTheCyclesItStandsFor) {
  // Three words in a four-deep queue of identical words: each cycle one
  // push fills it, a second push is refused on some cycles, one pop.
  Fifo<int> ticked("ticked", 4);
  Fifo<int> bulk("bulk", 4);
  for (int i = 0; i < 3; ++i) {
    ticked.push(7);
    bulk.push(7);
  }
  for (int cycle = 0; cycle < 5; ++cycle) {
    ticked.push(7);
    if (cycle % 2 == 0) {
      EXPECT_FALSE(ticked.try_push(7));
    }
    EXPECT_EQ(ticked.try_pop().value(), 7);
  }
  bulk.account_push_pop(5, 3);
  EXPECT_EQ(bulk.size(), ticked.size());
  EXPECT_EQ(bulk.stats().pushes, ticked.stats().pushes);
  EXPECT_EQ(bulk.stats().pops, ticked.stats().pops);
  EXPECT_EQ(bulk.stats().full_rejects, ticked.stats().full_rejects);
  EXPECT_EQ(bulk.stats().max_occupancy, 4U);
  EXPECT_EQ(ticked.stats().max_occupancy, 4U);

  bulk.account_push_pop(0, 0);  // an empty stretch changes nothing
  EXPECT_EQ(bulk.stats().pushes, 8U);
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
