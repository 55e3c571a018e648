#include "data/world.hpp"

#include <algorithm>
#include <stdexcept>

namespace mann::data {
namespace {

std::size_t index_of(const std::vector<std::string>& names,
                     const std::string& name, const char* kind) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    throw std::invalid_argument(std::string("World: unknown ") + kind + ": " +
                                name);
  }
  return static_cast<std::size_t>(it - names.begin());
}

}  // namespace

World::World(std::vector<std::string> actors,
             std::vector<std::string> locations,
             std::vector<std::string> objects)
    : actors_(std::move(actors)),
      locations_(std::move(locations)),
      objects_(std::move(objects)),
      actor_states_(actors_.size()),
      object_states_(objects_.size()) {}

World::ActorState& World::actor_state(const std::string& actor) {
  return actor_states_[index_of(actors_, actor, "actor")];
}

const World::ActorState& World::actor_state(const std::string& actor) const {
  return actor_states_[index_of(actors_, actor, "actor")];
}

World::ObjectState& World::object_state(const std::string& object) {
  return object_states_[index_of(objects_, object, "object")];
}

const World::ObjectState& World::object_state(
    const std::string& object) const {
  return object_states_[index_of(objects_, object, "object")];
}

void World::record_object_location(ObjectState& state,
                                   const std::string& loc) {
  state.location = loc;
  if (state.history.empty() || state.history.back() != loc) {
    state.history.push_back(loc);
  }
}

void World::move(const std::string& actor, const std::string& location) {
  (void)index_of(locations_, location, "location");
  ActorState& a = actor_state(actor);
  a.location = location;
  // Held objects travel with the actor.
  for (const std::string& obj : a.held) {
    record_object_location(object_state(obj), location);
  }
}

void World::grab(const std::string& actor, const std::string& object) {
  ObjectState& o = object_state(object);
  if (o.holder.has_value()) {
    throw std::logic_error("World::grab: object already held: " + object);
  }
  ActorState& a = actor_state(actor);
  o.holder = actor;
  a.held.push_back(object);
  if (a.location) {
    record_object_location(o, *a.location);
  }
}

void World::drop(const std::string& actor, const std::string& object) {
  ObjectState& o = object_state(object);
  if (o.holder != actor) {
    throw std::logic_error("World::drop: " + actor + " does not hold " +
                           object);
  }
  ActorState& a = actor_state(actor);
  o.holder.reset();
  std::erase(a.held, object);
  if (a.location) {
    record_object_location(o, *a.location);
  }
}

void World::give(const std::string& from, const std::string& to,
                 const std::string& object) {
  ObjectState& o = object_state(object);
  if (o.holder != from) {
    throw std::logic_error("World::give: " + from + " does not hold " +
                           object);
  }
  ActorState& src = actor_state(from);
  ActorState& dst = actor_state(to);
  std::erase(src.held, object);
  dst.held.push_back(object);
  o.holder = to;
  if (dst.location) {
    record_object_location(o, *dst.location);
  }
}

std::optional<std::string> World::actor_location(
    const std::string& actor) const {
  return actor_state(actor).location;
}

std::optional<std::string> World::object_location(
    const std::string& object) const {
  const ObjectState& o = object_state(object);
  if (o.holder) {
    return actor_state(*o.holder).location;
  }
  return o.location;
}

std::optional<std::string> World::holder(const std::string& object) const {
  return object_state(object).holder;
}

std::vector<std::string> World::carried(const std::string& actor) const {
  return actor_state(actor).held;
}

std::vector<std::string> World::object_location_history(
    const std::string& object) const {
  return object_state(object).history;
}

}  // namespace mann::data
