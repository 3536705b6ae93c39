// Realm-style events: the unit of synchronization in the deferred
// execution model. An Event names a point in virtual time that either has
// or has not triggered; arbitrary callbacks can be subscribed and run (in
// virtual time) when it triggers. Events are value types wrapping shared
// state; a default-constructed Event is the always-triggered NO_EVENT.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace cr::sim {

class Simulator;

using Time = uint64_t;  // virtual nanoseconds

namespace detail {
struct EventState {
  uint64_t uid = 0;  // unique per simulator, for trace dependence edges
  Simulator* sim = nullptr;  // for happens-before cause propagation
  bool triggered = false;
  Time trigger_time = 0;
  std::vector<std::function<void(Time)>> waiters;
};
}  // namespace detail

class Event {
 public:
  // The no-event: always triggered at time 0.
  Event() = default;

  bool has_triggered() const { return !state_ || state_->triggered; }
  // Only valid once triggered.
  Time trigger_time() const { return state_ ? state_->trigger_time : 0; }
  // Stable identity for trace dependence edges (0 for the no-event).
  uint64_t uid() const { return state_ ? state_->uid : 0; }

  // Run fn when the event triggers (immediately if already triggered).
  // fn receives the trigger time.
  void subscribe(std::function<void(Time)> fn) const;

  // Merge: an event that triggers when all inputs have triggered, at the
  // max of their trigger times. The merged trigger runs synchronously in
  // the last input's trigger cascade.
  static Event merge(Simulator& sim, const std::vector<Event>& events);

  // Merge for fan-ins across nodes (barriers and collectives): the
  // completion is deferred to its own scheduled entry at the max of the
  // input trigger times, one extra event at the same virtual time. The
  // critical-predecessor alias is chosen deterministically (latest
  // trigger time, ties by input order).
  static Event merge_remote(Simulator& sim, const std::vector<Event>& events);

  friend bool operator==(const Event&, const Event&) = default;

 private:
  friend class UserEvent;
  explicit Event(std::shared_ptr<detail::EventState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::EventState> state_;
};

// An event triggered explicitly by its owner.
class UserEvent {
 public:
  explicit UserEvent(Simulator& sim);
  Event event() const { return Event(state_); }
  bool has_triggered() const { return state_->triggered; }
  // Triggers at the simulator's current time. Must not already be
  // triggered. Waiters run synchronously (still at now()).
  void trigger();

 private:
  Simulator* sim_;
  std::shared_ptr<detail::EventState> state_;
};

}  // namespace cr::sim
