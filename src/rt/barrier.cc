#include "rt/barrier.h"

#include "sim/simulator.h"
#include "support/check.h"
#include "support/trace.h"

namespace cr::rt {

PhaseBarrier::PhaseBarrier(sim::Simulator& sim, sim::Network& net,
                           uint32_t participants)
    : sim_(&sim), net_(&net), participants_(participants) {
  CR_CHECK(participants > 0);
}

PhaseBarrier::Generation& PhaseBarrier::gen(uint64_t g) {
  auto [it, inserted] = generations_.try_emplace(g);
  if (inserted) it->second.done = sim_->make_event();
  return it->second;
}

void PhaseBarrier::maybe_wire(Generation& g) {
  if (g.wired || g.arrivals.size() < participants_) return;
  CR_CHECK_MSG(g.arrivals.size() == participants_,
               "barrier generation over-subscribed");
  g.wired = true;
  // Arrivals trigger on different nodes: use the remote merge, which
  // defers completion to its own scheduled event.
  const sim::Event all = sim_->merge_remote(g.arrivals);
  // Fan-in + fan-out over a binary tree of participants.
  const sim::Time latency = 2 * net_->tree_latency(participants_);
  sim::Work trace;
  if (sim_->tracer() != nullptr) {
    // The arrivals as instants, and the fan-in + fan-out propagation as
    // a sync span on the synthetic runtime track, fed by every arrival
    // and feeding the release. Trace-only work: untraced runs store none.
    trace = [sim = sim_, gp = &g, all, latency] {
      support::Tracer* t = sim->tracer();
      if (t == nullptr) return;
      const sim::Time now = sim->trigger_time(all);
      for (const sim::Event& a : gp->arrivals) {
        t->add_instant(support::kRuntimePid, 0, "barrier arrive",
                       sim->trigger_time(a));
      }
      const support::SpanId span = t->add_span(
          support::kRuntimePid, 0, support::TraceCategory::kSync, "barrier",
          now, now + latency);
      for (const sim::Event& a : gp->arrivals) t->edge(a.uid(), span);
      t->bind(gp->done.uid(), span);
      t->add_instant(support::kRuntimePid, 0, "barrier trigger",
                     now + latency);
    };
  }
  sim_->trigger_after(g.done, all, latency, std::move(trace));
}

void PhaseBarrier::arrive(uint64_t generation, sim::Event precondition) {
  Generation& g = gen(generation);
  CR_CHECK_MSG(!g.wired, "arrival after generation completed wiring");
  g.arrivals.push_back(precondition);
  maybe_wire(g);
}

sim::Event PhaseBarrier::wait(uint64_t generation) {
  return gen(generation).done;
}

}  // namespace cr::rt
