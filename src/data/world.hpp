// Mini world simulator behind the synthetic bAbI-style generators.
//
// bAbI stories are traces of a simple simulated world (the original dataset
// was itself produced by a simulation). This class tracks actors, portable
// objects and locations through move/grab/drop/give events and answers the
// queries the task generators need (current location, holder, location
// history, carried set). Generators create event streams, render them to
// sentences, and derive ground-truth answers from these queries — so the
// generated answer is correct by construction.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace mann::data {

/// Tracks where actors and objects are as events are applied.
class World {
 public:
  World(std::vector<std::string> actors, std::vector<std::string> locations,
        std::vector<std::string> objects);

  /// Actor moves to a location (both must exist; throws otherwise).
  void move(const std::string& actor, const std::string& location);

  /// Actor picks up an object. The object must not already be held.
  void grab(const std::string& actor, const std::string& object);

  /// Actor drops an object they hold (leaves it at the actor's location).
  void drop(const std::string& actor, const std::string& object);

  /// Actor hands an object they hold to another actor.
  void give(const std::string& from, const std::string& to,
            const std::string& object);

  /// Current location of an actor, if any move has happened.
  [[nodiscard]] std::optional<std::string> actor_location(
      const std::string& actor) const;

  /// Location of an object: the holder's location if held, else where it
  /// was last dropped (nullopt if never placed anywhere known).
  [[nodiscard]] std::optional<std::string> object_location(
      const std::string& object) const;

  /// Actor currently holding the object.
  [[nodiscard]] std::optional<std::string> holder(
      const std::string& object) const;

  /// Objects held by the actor, in pickup order.
  [[nodiscard]] std::vector<std::string> carried(
      const std::string& actor) const;

  /// Distinct known locations an object has occupied, oldest first,
  /// including its current one. Includes the locations of holders at the
  /// time the object moved with them.
  [[nodiscard]] std::vector<std::string> object_location_history(
      const std::string& object) const;

  [[nodiscard]] const std::vector<std::string>& actors() const noexcept {
    return actors_;
  }
  [[nodiscard]] const std::vector<std::string>& locations() const noexcept {
    return locations_;
  }
  [[nodiscard]] const std::vector<std::string>& objects() const noexcept {
    return objects_;
  }

 private:
  struct ActorState {
    std::optional<std::string> location;
    std::vector<std::string> held;
  };
  struct ObjectState {
    std::optional<std::string> holder;
    std::optional<std::string> location;
    std::vector<std::string> history;
  };

  [[nodiscard]] ActorState& actor_state(const std::string& actor);
  [[nodiscard]] const ActorState& actor_state(const std::string& actor) const;
  [[nodiscard]] ObjectState& object_state(const std::string& object);
  [[nodiscard]] const ObjectState& object_state(
      const std::string& object) const;

  void record_object_location(ObjectState& state, const std::string& loc);

  std::vector<std::string> actors_;
  std::vector<std::string> locations_;
  std::vector<std::string> objects_;
  std::vector<ActorState> actor_states_;
  std::vector<ObjectState> object_states_;
};

}  // namespace mann::data
