#include "data/world.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mann::data {
namespace {

World make_world() {
  return World({"mary", "john"}, {"kitchen", "garden", "office"},
               {"apple", "ball"});
}

TEST(World, UnknownNamesRejected) {
  World w = make_world();
  EXPECT_THROW(w.move("ghost", "kitchen"), std::invalid_argument);
  EXPECT_THROW(w.move("mary", "moon"), std::invalid_argument);
  EXPECT_THROW(w.grab("mary", "sword"), std::invalid_argument);
}

TEST(World, MoveTracksLocation) {
  World w = make_world();
  EXPECT_FALSE(w.actor_location("mary").has_value());
  w.move("mary", "kitchen");
  EXPECT_EQ(w.actor_location("mary").value(), "kitchen");
  w.move("mary", "garden");
  EXPECT_EQ(w.actor_location("mary").value(), "garden");
}

TEST(World, GrabAndHolder) {
  World w = make_world();
  w.move("mary", "kitchen");
  w.grab("mary", "apple");
  EXPECT_EQ(w.holder("apple").value(), "mary");
  EXPECT_EQ(w.object_location("apple").value(), "kitchen");
}

TEST(World, DoubleGrabIsBug) {
  World w = make_world();
  w.move("mary", "kitchen");
  w.move("john", "kitchen");
  w.grab("mary", "apple");
  EXPECT_THROW(w.grab("john", "apple"), std::logic_error);
}

TEST(World, HeldObjectTravelsWithActor) {
  World w = make_world();
  w.move("mary", "kitchen");
  w.grab("mary", "apple");
  w.move("mary", "office");
  EXPECT_EQ(w.object_location("apple").value(), "office");
}

TEST(World, DropLeavesObjectBehind) {
  World w = make_world();
  w.move("mary", "kitchen");
  w.grab("mary", "apple");
  w.move("mary", "garden");
  w.drop("mary", "apple");
  w.move("mary", "office");
  EXPECT_EQ(w.object_location("apple").value(), "garden");
  EXPECT_FALSE(w.holder("apple").has_value());
}

TEST(World, DropRequiresPossession) {
  World w = make_world();
  w.move("john", "kitchen");
  EXPECT_THROW(w.drop("john", "apple"), std::logic_error);
}

TEST(World, GiveTransfersPossession) {
  World w = make_world();
  w.move("mary", "kitchen");
  w.move("john", "kitchen");
  w.grab("mary", "apple");
  w.give("mary", "john", "apple");
  EXPECT_EQ(w.holder("apple").value(), "john");
  EXPECT_TRUE(w.carried("mary").empty());
  ASSERT_EQ(w.carried("john").size(), 1U);
  EXPECT_EQ(w.carried("john")[0], "apple");
}

TEST(World, GiveRequiresPossession) {
  World w = make_world();
  EXPECT_THROW(w.give("mary", "john", "apple"), std::logic_error);
}

TEST(World, CarriedPreservesPickupOrder) {
  World w = make_world();
  w.move("mary", "kitchen");
  w.grab("mary", "ball");
  w.grab("mary", "apple");
  const auto held = w.carried("mary");
  ASSERT_EQ(held.size(), 2U);
  EXPECT_EQ(held[0], "ball");
  EXPECT_EQ(held[1], "apple");
}

TEST(World, ObjectHistoryDistinctOldestFirst) {
  World w = make_world();
  w.move("mary", "kitchen");
  w.grab("mary", "apple");
  w.move("mary", "garden");
  w.move("mary", "office");
  w.drop("mary", "apple");
  const auto hist = w.object_location_history("apple");
  ASSERT_EQ(hist.size(), 3U);
  EXPECT_EQ(hist[0], "kitchen");
  EXPECT_EQ(hist[1], "garden");
  EXPECT_EQ(hist[2], "office");
}

}  // namespace
}  // namespace mann::data
