// The mapping interface (paper §4.2): where tasks, shards and data run.
//
// All placement decisions — shard→node, launch color→node, point
// task→core, control thread→core — pass through the one concrete
// Mapper the Engine builds from ExecConfig::mapper. Its policy is one
// of the named built-ins ("default", "balanced", "adversarial").
//
// Contract (see DESIGN.md "Mapping"):
//  - A mapper is a pure function of its constructor inputs (machine
//    shape, per-node speed factors, MapperOptions) and the per-call
//    arguments. It must not read wall clock or global mutable state.
//  - place(weights), the one policy decision, returns the node of every
//    color of a partition or launch: where its point task executes and
//    where the backing subregion instance lives. The engine calls it
//    once per partition (and once per launch not covered by one), with
//    the subregion sizes as weights, so a policy can respond to skewed
//    partitions.
//  - shard_node/control_proc place control threads and compute_proc
//    picks the core for the `seq`-th task issued on a node. They are the
//    same for every policy.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/machine.h"

namespace cr::rt {

// Placement-policy selection. Threaded through ExecConfig::mapper (the
// only way to configure placement) and bench --mapper=<name>.
struct MapperOptions {
  std::string name = "default";
};

// The blocked distribution shared by the default policy, the engine's
// copy-ownership rule and the SPMD shard blocking: ceil(colors/parts) per
// part with the remainder on the leading parts. Keeping one definition
// guarantees shard-owned colors are node-local under the default policy
// (paper §3.5).
struct BlockRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};
BlockRange block_range(uint64_t colors, uint32_t parts, uint32_t part);

class Mapper {
 public:
  // CHECK-fails on a name outside mapper_names() (a typo must not
  // silently fall back to a different placement).
  Mapper(const sim::Machine& machine, const MapperOptions& options);

  const std::string& name() const { return name_; }
  uint32_t compute_cores_per_node() const { return compute_cores_; }

  // The node of each color, given each color's work weight (its
  // subregion size):
  //  - default: the blocks of block_range, ignoring weights (the
  //    committed baselines pin these placements bit for bit);
  //  - balanced: contiguous blocks, each node's share of the total
  //    weight proportional to its speed factor;
  //  - adversarial: every color on the slowest node.
  std::vector<uint32_t> place(std::span<const uint64_t> weights) const;

  // Node running shard `s` of `num_shards`.
  uint32_t shard_node(uint32_t s, uint32_t num_shards) const;

  // The `seq`-th compute task issued on `node`: round-robin over the
  // node's compute cores. Legion dedicates one core per node to its
  // dynamic analysis (PENNANT's single-node gap in §5.3 comes from
  // exactly this), so core 0 computes only on a 1-core node.
  sim::ProcId compute_proc(uint32_t node, uint64_t seq) const;

  // Where a control thread (main task or shard) runs: core 0, the
  // runtime core.
  sim::ProcId control_proc(uint32_t node) const;

 private:
  enum class Policy { kDefault, kBalanced, kAdversarial };

  std::string name_;
  Policy policy_ = Policy::kDefault;
  uint32_t nodes_;
  uint32_t reserved_;  // cores kept for the runtime: 1, or 0 on 1-core nodes
  uint32_t compute_cores_;
  // balanced: each node's speed factor in permille (at least 1), and
  // their sum.
  std::vector<uint64_t> permille_;
  uint64_t permille_total_ = 0;
  // adversarial: the slowest node, lowest index on ties.
  uint32_t slowest_ = 0;
};

// The named placement policies, in Mapper::place's order: "default",
// "balanced" and "adversarial".
const std::vector<std::string>& mapper_names();

}  // namespace cr::rt
