// The runtime context: one simulated machine plus the Legion-analog
// services layered on it. Executors (implicit, SPMD, and the hand-written
// baselines) share this bundle; constructing one Runtime corresponds to
// one job allocation on the cluster. One Runtime hosts one run: its
// clock, dependence tracker, copy and network totals and metrics are
// that run's, and Engine::run() aborts on a runtime that has already
// run. Placement is not the runtime's: each Engine owns its rt::Mapper,
// built from ExecConfig::mapper.
#pragma once

#include "rt/copy.h"
#include "rt/dependence.h"
#include "rt/partition.h"
#include "rt/physical.h"
#include "rt/region_tree.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "support/metrics.h"

namespace cr::rt {

struct RuntimeConfig {
  sim::MachineConfig machine;
  sim::NetworkConfig network;
  // When true, physical instances are allocated and kernels/copies move
  // real data (correctness runs). When false, only virtual time advances
  // (scalability sweeps at sizes where materializing data is pointless).
  bool real_data = true;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);

  sim::Simulator& sim() { return sim_; }
  sim::Machine& machine() { return machine_; }
  sim::Network& network() { return network_; }
  RegionForest& forest() { return forest_; }
  const RegionForest& forest() const { return forest_; }
  DependenceTracker& deps() { return deps_; }
  CopyEngine& copies() { return copies_; }
  support::MetricsRegistry& metrics() { return metrics_; }

  bool real_data() const { return config_.real_data; }
  const RuntimeConfig& config() const { return config_; }

  // Null in virtual-only mode.
  InstanceManager* instances() {
    return config_.real_data ? &instances_ : nullptr;
  }

 private:
  RuntimeConfig config_;
  sim::Simulator sim_;
  sim::Machine machine_;
  sim::Network network_;
  RegionForest forest_;
  InstanceManager instances_;
  DependenceTracker deps_;
  CopyEngine copies_;
  support::MetricsRegistry metrics_;
};

}  // namespace cr::rt
