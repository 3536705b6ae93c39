#include "apps/common/bsp.h"

#include "support/check.h"

namespace cr::apps {

sim::Time run_bsp(const BspConfig& config, const exec::CostModel& cost) {
  CR_CHECK(config.compute_ns != nullptr);
  CR_CHECK(config.ranks_per_node >= 1 &&
           config.ranks_per_node <= config.cores_per_node);

  sim::Simulator sim;
  sim::Machine machine(
      sim, {.nodes = config.nodes, .cores_per_node = config.cores_per_node});
  sim::Network net(sim, config.nodes, cost.network);

  const uint32_t ranks = config.nodes * config.ranks_per_node;
  auto node_of = [&](uint32_t rank) { return rank / config.ranks_per_node; };
  auto core_of = [&](uint32_t rank) {
    // Spread ranks over the node's cores (one "main" core per rank; a
    // rank-per-node configuration threads over the rest, which the
    // caller folds into compute_ns).
    const uint32_t local = rank % config.ranks_per_node;
    return local * (config.cores_per_node / config.ranks_per_node);
  };

  // Static inbound pattern (reverse of sends).
  std::vector<std::vector<uint32_t>> senders_of(ranks);
  std::vector<std::vector<BspMessage>> sends_of(ranks);
  for (uint32_t r = 0; r < ranks; ++r) {
    sends_of[r] = config.sends ? config.sends(r) : std::vector<BspMessage>{};
    for (const BspMessage& m : sends_of[r]) {
      CR_CHECK(m.dst_rank < ranks);
      senders_of[m.dst_rank].push_back(r);
    }
  }

  std::vector<sim::Event> ready(ranks);  // rank may start next iteration
  std::vector<sim::Event> computed(ranks);
  std::vector<std::vector<sim::Event>> inbound(ranks);
  for (uint64_t it = 0; it < config.iterations; ++it) {
    // Compute phase.
    for (uint32_t r = 0; r < ranks; ++r) {
      sim::Processor& proc = machine.proc(node_of(r), core_of(r));
      const double ns = config.compute_ns(r, it) + config.rank_overhead_ns;
      computed[r] = proc.spawn(
          ready[r], ns <= 0 ? 0 : static_cast<sim::Time>(ns));
    }
    // Communication phase: sends gated on the sender's compute.
    for (std::vector<sim::Event>& in : inbound) in.clear();
    for (uint32_t r = 0; r < ranks; ++r) {
      for (const BspMessage& m : sends_of[r]) {
        inbound[m.dst_rank].push_back(net.send(
            node_of(r), node_of(m.dst_rank), m.bytes, computed[r]));
      }
    }
    for (uint32_t r = 0; r < ranks; ++r) {
      inbound[r].push_back(computed[r]);
      ready[r] = sim.merge(inbound[r]);
    }
    // Blocking collective: everyone waits for everyone.
    if (config.allreduce_per_iteration) {
      const sim::Event all = sim.merge(ready);
      const sim::Time latency = 2 * net.tree_latency(ranks);
      const sim::Event released = sim.make_event();
      sim.trigger_after(released, all, latency);
      for (uint32_t r = 0; r < ranks; ++r) ready[r] = released;
    }
  }
  return sim.run();
}

}  // namespace cr::apps
