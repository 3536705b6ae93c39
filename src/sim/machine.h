// The simulated machine: `nodes` x `cores_per_node` processors plus one
// NIC per node. Mirrors the Piz Daint configuration used in the paper
// (1024 nodes x 12 cores) by default, but any shape can be built.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/processor.h"

namespace cr::sim {

class Simulator;

struct MachineConfig {
  uint32_t nodes = 1;
  uint32_t cores_per_node = 12;

  // --- scenario knobs (heterogeneous / faulty machines) ---------------
  // Relative per-node speed factors (1.0 = nominal). Empty = homogeneous;
  // otherwise must have exactly `nodes` entries. Mappers read these via
  // Machine::node_speed / Mapper::node_speed.
  std::vector<double> node_speed = {};
  // Injected transient slowdowns: during [begin, end) in virtual time,
  // work starting on `node`'s cores runs `factor`x longer. Deterministic
  // and replay-stable (see sim::SlowdownWindow).
  struct NodeSlowdown {
    uint32_t node = 0;
    Time begin = 0;
    Time end = 0;
    double factor = 1.0;
  };
  std::vector<NodeSlowdown> slowdowns = {};
};

class Machine {
 public:
  Machine(Simulator& sim, MachineConfig config);

  uint32_t nodes() const { return config_.nodes; }
  uint32_t cores_per_node() const { return config_.cores_per_node; }
  // Speed factor of `node` (1.0 when the config left node_speed empty).
  double node_speed(uint32_t node) const;

  Processor& proc(uint32_t node, uint32_t core);
  Processor& proc(ProcId id) { return proc(id.node, id.core); }

  // Aggregate busy time across all cores of a node.
  Time node_busy_time(uint32_t node) const;

 private:
  MachineConfig config_;
  // One NodePerf per node, built before the processors that point at it
  // and never resized afterwards (stable addresses).
  std::vector<NodePerf> perf_;
  std::vector<std::unique_ptr<Processor>> procs_;
};

}  // namespace cr::sim
