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
  if (inserted) {
    it->second.done = std::make_unique<sim::UserEvent>(*sim_);
  }
  return it->second;
}

void PhaseBarrier::maybe_wire(Generation& g) {
  if (g.wired || g.arrivals.size() < participants_) return;
  CR_CHECK_MSG(g.arrivals.size() == participants_,
               "barrier generation over-subscribed");
  g.wired = true;
  // Arrivals trigger on different nodes: use the remote merge, which
  // defers completion to its own scheduled event.
  sim::Event all = sim::Event::merge_remote(*sim_, g.arrivals);
  // Fan-in + fan-out over a binary tree of participants.
  const sim::Time latency = 2 * net_->tree_latency(participants_);
  sim::UserEvent* done = g.done.get();
  Generation* gp = &g;
  all.subscribe([this, latency, done, gp](sim::Time now) {
    if (support::Tracer* t = sim_->tracer()) {
      // The fan-in + fan-out propagation as a sync span on the synthetic
      // runtime track, fed by every arrival and feeding the release.
      const support::SpanId span = t->add_span(
          support::kRuntimePid, 0, support::TraceCategory::kSync, "barrier",
          now, now + latency);
      for (const sim::Event& a : gp->arrivals) t->edge(a.uid(), span);
      t->bind(done->event().uid(), span);
      t->add_instant(support::kRuntimePid, 0, "barrier trigger",
                     now + latency);
    }
    sim_->schedule_after(latency, [done] { done->trigger(); });
  });
}

void PhaseBarrier::arrive(uint64_t generation, sim::Event precondition) {
  Generation& g = gen(generation);
  CR_CHECK_MSG(!g.wired, "arrival after generation completed wiring");
  g.arrivals.push_back(precondition);
  if (sim_->tracer() != nullptr) {
    sim::Simulator* simp = sim_;
    precondition.subscribe([simp](sim::Time now) {
      if (support::Tracer* t = simp->tracer()) {
        t->add_instant(support::kRuntimePid, 0, "barrier arrive", now);
      }
    });
  }
  maybe_wire(g);
}

sim::Event PhaseBarrier::wait(uint64_t generation) {
  return gen(generation).done->event();
}

}  // namespace cr::rt
