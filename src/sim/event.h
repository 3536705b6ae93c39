// Realm-style events: the unit of synchronization in the deferred
// execution model. An Event names a point in virtual time that either has
// or has not triggered. It is a 32-bit id into its Simulator's event
// arena (see simulator.h), so it is as cheap to copy and store as an
// integer; every query and every wiring goes through the Simulator. The
// default-constructed Event (id 0) is the always-triggered NO_EVENT.
#pragma once

#include <cstdint>
#include <functional>

namespace cr::sim {

class Network;
class Processor;
class Simulator;

using Time = uint64_t;  // virtual nanoseconds

// The fallback callable: real side effects (Real-mode kernels, copy data
// movement, scalar folds) that no typed continuation expresses. Only
// work that exists is ever stored; the hot paths carry none.
using Work = std::function<void()>;

class Event {
 public:
  // The no-event: always triggered at time 0.
  Event() = default;

  // Stable identity for trace dependence edges and the happens-before
  // graph (0 for the no-event). Ids are allocated in creation order.
  uint64_t uid() const { return id_; }

  friend bool operator==(const Event&, const Event&) = default;

 private:
  friend class Network;
  friend class Processor;
  friend class Simulator;
  explicit Event(uint32_t id) : id_(id) {}
  uint32_t id_ = 0;
};

}  // namespace cr::sim
