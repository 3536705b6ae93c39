#include "rt/barrier.h"

#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "support/trace.h"

namespace cr::rt {

sim::Event rendezvous(sim::Simulator& sim, const sim::Network& net,
                      std::span<const sim::Event> arrivals, sim::Event done,
                      const char* name, uint32_t track, sim::Work at_gather) {
  // Arrivals trigger on different nodes: use the remote merge, which
  // defers completion to its own scheduled event.
  const sim::Event gather = sim.merge_remote(arrivals);
  // Fan-in + fan-out over a binary tree of participants.
  const sim::Time latency =
      2 * net.tree_latency(static_cast<uint32_t>(arrivals.size()));
  if (sim.tracer() != nullptr) {
    // The arrivals as instants, and the fan-in + fan-out propagation as
    // a sync span on the runtime track, fed by every arrival and feeding
    // the release. Trace-only work: untraced runs store none.
    at_gather = [&sim, at_gather = std::move(at_gather),
                 inputs = std::vector<sim::Event>(arrivals.begin(),
                                                  arrivals.end()),
                 gather, done, latency, name, track] {
      if (at_gather) at_gather();
      support::Tracer* t = sim.tracer();
      if (t == nullptr) return;
      const sim::Time now = sim.trigger_time(gather);
      // Appended, not `name + " arrive"`: GCC 12 at -O3 reports a false
      // -Wrestrict inside that operator+.
      std::string arrive = name;
      arrive += " arrive";
      for (const sim::Event& a : inputs) {
        t->add_instant(support::kRuntimePid, track, arrive,
                       sim.trigger_time(a));
      }
      const support::SpanId span =
          t->add_span(support::kRuntimePid, track,
                      support::TraceCategory::kSync, name, now, now + latency);
      for (const sim::Event& a : inputs) t->edge(a.uid(), span);
      t->bind(done.uid(), span);
      std::string trigger = name;
      trigger += " trigger";
      t->add_instant(support::kRuntimePid, track, std::move(trigger),
                     now + latency);
    };
  }
  sim.trigger_after(done, gather, latency, std::move(at_gather));
  return gather;
}

}  // namespace cr::rt
