// A simulated processor core. Work items occupy the core for a span of
// virtual time; items that become ready while the core is busy queue up
// FIFO (in ready order). The `work` callback performs real side effects
// (kernel execution, analysis bookkeeping) at the item's virtual start
// time.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event.h"
#include "sim/simulator.h"
#include "support/trace.h"

namespace cr::sim {

struct ProcId {
  uint32_t node = 0;
  uint32_t core = 0;
  friend bool operator==(const ProcId&, const ProcId&) = default;
};

// A virtual-time interval during which a node's cores run slower
// (an injected transient fault / interference burst). An item whose
// *start* falls inside [begin, end) has its duration multiplied by
// `factor` (>= 1: scenarios may only slow work down).
struct SlowdownWindow {
  Time begin = 0;
  Time end = 0;
  double factor = 1.0;
};

// Per-node performance scenario: a static speed factor (heterogeneous
// machines; 1.0 = nominal, 0.5 = half speed) plus injected slowdown
// windows. Durations are scaled deterministically from virtual times
// only, so every run replays the same timeline.
struct NodePerf {
  double speed = 1.0;
  std::vector<SlowdownWindow> slowdowns;

  Time scale(Time start, Time duration) const {
    if (duration == 0) return 0;
    double d = static_cast<double>(duration);
    if (speed != 1.0 && speed > 0.0) d /= speed;
    for (const SlowdownWindow& w : slowdowns) {
      if (start >= w.begin && start < w.end) d *= w.factor;
    }
    const auto out = static_cast<Time>(std::llround(d));
    return out == 0 ? 1 : out;  // scaled nonzero work never becomes free
  }
};

class Processor {
 public:
  Processor(Simulator& sim, ProcId id, const NodePerf* perf = nullptr)
      : sim_(&sim), id_(id), perf_(perf) {}

  ProcId id() const { return id_; }

  // Enqueue a work item: after `precondition` triggers, the item occupies
  // this core for `duration` ns (FIFO with other items that are ready).
  // `work` (optional) runs at the item's start time. Returns the
  // completion event. When a tracer is attached to the simulator, the
  // occupancy interval is recorded as a span labeled by `tag` (or a
  // generic "work" span when the tag is empty) and wired into the
  // dependence graph via the precondition and completion events.
  Event spawn(Event precondition, Time duration, Work work = nullptr,
              support::TraceTag tag = {});

  // Total busy time accumulated (for utilization reports).
  Time busy_time() const { return busy_; }

 private:
  friend class Simulator;
  // The pickup continuation: the item became ready at `ready`.
  void pickup(const Simulator::SpawnRecord& item, uint32_t pre, Time ready);

  Simulator* sim_;
  ProcId id_;
  const NodePerf* perf_;  // null = nominal speed, no slowdowns
  Time next_free_ = 0;
  Time busy_ = 0;
};

}  // namespace cr::sim
