// The mapping interface (paper §4.2): where tasks, shards and data run.
//
// All placement decisions — shard→node, launch color→node, point
// task→core, control thread→core — pass through a Mapper. Policies are
// pluggable: make_mapper builds one of the named built-ins ("default",
// "balanced", "adversarial") and ExecConfig::mapper selects
// one per run; the Engine installs it on the Runtime at construction.
//
// Contract (see DESIGN.md "Mapping"):
//  - A mapper is a pure function of its constructor inputs (machine
//    shape, per-node speed factors, MapperOptions) and the per-call
//    arguments. It must not read wall clock or global mutable state;
//    placements are queried only during the unroll.
//  - node_of_color, the one virtual placement, decides both where a
//    launch's point task executes and where the backing subregion
//    instance lives; per-launch LaunchShape weights let a policy respond
//    to skewed partitions.
//  - shard_node/control_proc place control threads and compute_proc
//    picks the core for the `seq`-th task issued on a node. They are the
//    same for every policy, so none overrides them.
//  - Speed factors (sim::MachineConfig::node_speed) are surfaced via
//    node_speed() so cost-aware policies can weight placement by them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/machine.h"

namespace cr::rt {

// Placement-policy selection plus its knob. Threaded through
// ExecConfig::mapper (the only way to configure placement) and bench
// --mapper=<name>.
struct MapperOptions {
  std::string name = "default";
  // Cores per node unavailable to application tasks (runtime analysis).
  // Legion dedicates one core per node to its dynamic analysis;
  // PENNANT's single-node gap in §5.3 comes from exactly this.
  uint32_t reserved_cores = 1;
};

// Per-launch geometry handed to node_of_color. `weights` (optional) is
// the per-color work estimate — subregion sizes — with exactly
// `num_colors` entries; null means uniform. The default policy ignores
// weights (placements depend on num_colors alone, the pre-registry
// behavior); cost-aware policies use them to even load under skewed
// partitions.
struct LaunchShape {
  uint64_t num_colors = 0;
  const std::vector<uint64_t>* weights = nullptr;
};

// The blocked distribution shared by the default mapper, the engine's
// copy-ownership rule and the SPMD shard blocking: ceil(colors/parts) per
// part with the remainder on the leading parts. Keeping one definition
// guarantees shard-owned colors are node-local under the default policy
// (paper §3.5).
uint32_t block_owner(uint64_t c, uint64_t colors, uint32_t parts);
struct BlockRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};
BlockRange block_range(uint64_t colors, uint32_t parts, uint32_t part);

class Mapper {
 public:
  // Constructing a Mapper directly yields the default blocked policy;
  // named policies come from make_mapper.
  Mapper(const sim::Machine& machine, const MapperOptions& options);
  virtual ~Mapper() = default;

  const std::string& name() const { return name_; }
  uint32_t nodes() const { return nodes_; }
  uint32_t compute_cores_per_node() const { return compute_cores_; }
  // Relative speed factor of `node` (1.0 = nominal), copied from the
  // machine at construction so cost-aware policies can consult it.
  double node_speed(uint32_t node) const { return speeds_[node]; }

  // Node owning color `c` of a launch with `shape`: block distribution
  // by default, matching the shard blocking of paper §3.5.
  virtual uint32_t node_of_color(uint64_t c, const LaunchShape& shape) const;
  // Convenience for uniform launches.
  uint32_t node_of_color(uint64_t c, uint64_t num_colors) const {
    return node_of_color(c, LaunchShape{num_colors, nullptr});
  }

  // Node running shard `s` of `num_shards`.
  uint32_t shard_node(uint32_t s, uint32_t num_shards) const;

  // The `seq`-th compute task issued on `node`: round-robin over the
  // node's compute cores (those not reserved for the runtime).
  sim::ProcId compute_proc(uint32_t node, uint64_t seq) const;

  // Where a control thread (main task or shard) runs: the reserved
  // runtime core when one exists, else core 0.
  sim::ProcId control_proc(uint32_t node) const;

 protected:
  std::string name_;
  uint32_t nodes_;
  uint32_t cores_;
  uint32_t compute_cores_;
  uint32_t reserved_;
  std::vector<double> speeds_;
};

// The named placement policies: "default" (blocked; the committed
// baselines pin its placements bit for bit), "balanced" (speed- and
// weight-aware contiguous blocks) and "adversarial" (every color on the
// slowest node).
const std::vector<std::string>& mapper_names();

// Builds the policy named options.name. CHECK-fails on an unknown name
// (a typo must not silently fall back to a different placement).
std::unique_ptr<Mapper> make_mapper(const sim::Machine& machine,
                                    const MapperOptions& options);

}  // namespace cr::rt
