#include "rt/collective.h"

#include "sim/simulator.h"
#include "support/check.h"
#include "support/trace.h"

namespace cr::rt {

DynamicCollective::DynamicCollective(sim::Simulator& sim, sim::Network& net,
                                     uint32_t participants, ReduceOp op)
    : sim_(&sim), net_(&net), participants_(participants), op_(op) {
  CR_CHECK(participants > 0);
}

DynamicCollective::Generation& DynamicCollective::gen(uint64_t g) {
  auto [it, inserted] = generations_.try_emplace(g);
  if (inserted) {
    it->second.values.resize(participants_);
    it->second.done = sim_->make_event();
  }
  return it->second;
}

void DynamicCollective::contribute(uint64_t generation, uint32_t rank,
                                   sim::Event precondition,
                                   std::function<double()> value) {
  CR_CHECK(rank < participants_);
  Generation& g = gen(generation);
  CR_CHECK_MSG(!g.values[rank], "duplicate contribution");
  g.values[rank] = std::move(value);
  g.arrivals.push_back(precondition);
  maybe_wire(g);
}

void DynamicCollective::maybe_wire(Generation& g) {
  if (g.wired || g.arrivals.size() < participants_) return;
  g.wired = true;
  // Contributions trigger on different nodes: remote merge.
  const sim::Event all = sim_->merge_remote(g.arrivals);
  g.gather_uid = all.uid();
  const sim::Time latency = 2 * net_->tree_latency(participants_);
  // The fold runs at the gather (every contribution is in), then the
  // result reaches everyone a fan-in + fan-out later.
  sim_->trigger_after(
      g.done, all, latency,
      [sim = sim_, gp = &g, op = op_, all, latency] {
        // Fold in rank order: deterministic regardless of arrival order.
        double acc = reduce_identity(op);
        for (const auto& fn : gp->values) acc = reduce_fold(op, acc, fn());
        gp->result = acc;
        if (support::Tracer* t = sim->tracer()) {
          const sim::Time now = sim->trigger_time(all);
          const support::SpanId span = t->add_span(
              support::kRuntimePid, 1, support::TraceCategory::kSync,
              "allreduce", now, now + latency);
          for (const sim::Event& a : gp->arrivals) t->edge(a.uid(), span);
          t->bind(gp->done.uid(), span);
        }
      });
}

sim::Event DynamicCollective::result_event(uint64_t generation) {
  return gen(generation).done;
}

uint64_t DynamicCollective::gather_uid(uint64_t generation) const {
  auto it = generations_.find(generation);
  return it != generations_.end() ? it->second.gather_uid : 0;
}

double DynamicCollective::result(uint64_t generation) const {
  auto it = generations_.find(generation);
  CR_CHECK(it != generations_.end());
  CR_CHECK_MSG(sim_->has_triggered(it->second.done),
               "collective result read before completion");
  return it->second.result;
}

}  // namespace cr::rt
