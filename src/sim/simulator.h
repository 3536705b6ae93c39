// The discrete-event simulator: a virtual clock plus an event queue.
//
// This is the substitute for a physical cluster. All runtime activity —
// task execution, copies, synchronization, network messages — is expressed
// as callbacks scheduled at virtual times.
//
// run() drains one queue ordered by (time, insertion sequence), so a
// given program unrolling always produces the same timeline (bit-for-bit
// deterministic results).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/event.h"
#include "sim/event_graph.h"

namespace cr::support {
class Tracer;
}

namespace cr::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Attach (or detach with nullptr) a trace recorder. Every component
  // holding a Simulator reference reaches the tracer through here; a
  // null tracer is the zero-cost disabled path.
  void set_tracer(support::Tracer* tracer) { tracer_ = tracer; }
  support::Tracer* tracer() const { return tracer_; }

  // Attach (or detach with nullptr) a happens-before edge recorder.
  // Same contract as the tracer: null means disabled and free.
  void set_event_graph(EventGraph* graph) { graph_ = graph; }
  EventGraph* event_graph() const { return graph_; }

  // The uid of the event whose trigger (or triggered-subscription) is
  // causally responsible for the code currently running; 0 when none.
  // Captured by schedule_at so causality crosses deferred callbacks.
  uint64_t current_cause() const { return current_cause_; }
  void set_current_cause(uint64_t cause) { current_cause_ = cause; }

  // Unique id for a new event's trace identity.
  uint64_t new_event_uid() { return ++next_event_uid_; }

  // Schedule fn at absolute virtual time t (>= now()).
  void schedule_at(Time t, std::function<void()> fn);
  // Schedule fn dt ns from now.
  void schedule_after(Time dt, std::function<void()> fn);

  // Run until the queue drains. Returns the final time.
  Time run();

  uint64_t events_processed() const { return events_processed_; }

  // High-water mark of pending entries, sampled per push.
  uint64_t max_queue_depth() const { return max_queue_depth_; }

 private:
  struct Entry {
    Time time;
    uint64_t seq;    // global insertion sequence: the same-time tie-break
    uint64_t cause;  // ambient current_cause() at schedule time
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_event_uid_ = 0;
  uint64_t current_cause_ = 0;
  support::Tracer* tracer_ = nullptr;
  EventGraph* graph_ = nullptr;
  uint64_t events_processed_ = 0;
  uint64_t max_queue_depth_ = 0;
  bool running_ = false;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

}  // namespace cr::sim
