// A small bulk-synchronous SPMD framework on the simulated machine: the
// substrate for the hand-written MPI / MPI+OpenMP / MPI+Kokkos reference
// baselines of paper §5. Each rank alternates compute and communication;
// messages are explicit, receives block the next iteration's compute, and
// optional blocking allreduces model the collectives MPI codes issue
// inline (the blocking dt-reduction of PENNANT's reference is exactly the
// latency CR hides, §5.3).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/cost_model.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "support/hash.h"

namespace cr::apps {

struct BspMessage {
  uint32_t dst_rank = 0;
  uint64_t bytes = 0;
};

// Heavy-tailed system noise: with probability `slow_prob`, a rank's
// iteration runs (1 + slow_frac) times longer (an OS preemption / network
// hiccup). Bulk-synchronous codes pay the *maximum* across ranks at every
// barrier or blocking collective, so at large rank counts nearly every
// cycle is hit; asynchronous execution only pays the mean. Deterministic
// (hash of the key) so experiments replay exactly.
struct Noise {
  double slow_prob = 0.0;
  double slow_frac = 0.0;
};

inline double noise_factor(uint64_t key, const Noise& noise) {
  if (noise.slow_prob <= 0) return 1.0;
  return support::hash_unit(key) < noise.slow_prob ? 1.0 + noise.slow_frac
                                                    : 1.0;
}

struct BspConfig {
  uint32_t nodes = 1;
  uint32_t ranks_per_node = 1;   // MPI decomposition
  uint32_t cores_per_node = 12;  // all usable by the application
  uint64_t iterations = 1;
  // Per-iteration compute time of one rank (ns). Receives (rank, iter).
  std::function<double(uint32_t, uint64_t)> compute_ns;
  // Static communication pattern: messages rank sends every iteration.
  std::function<std::vector<BspMessage>(uint32_t)> sends;
  // Issue a blocking allreduce at the end of every iteration.
  bool allreduce_per_iteration = false;
  // Extra per-iteration overhead per rank (e.g. OpenMP fork/join).
  double rank_overhead_ns = 0;
};

// Runs the BSP program and returns the virtual makespan.
sim::Time run_bsp(const BspConfig& config, const exec::CostModel& cost);

}  // namespace cr::apps
