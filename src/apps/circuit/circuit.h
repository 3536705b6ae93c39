// Circuit: the sparse circuit simulation of paper §5.4, after the Legion
// paper's canonical example.
//
// Each timestep runs three phases over the pieces of a random sparse
// graph:
//   calc_new_currents  — wire currents from endpoint voltage drops;
//   distribute_charge  — deposit +-I*dt into endpoint nodes (region
//                        reductions into shared/ghost nodes, paper §4.3);
//   update_voltages    — V += q/C, leak, reset charge.
//
// The node region uses the hierarchical private/shared split of paper
// §4.5: private nodes provably never communicate; shared nodes are
// exchanged through ghost partitions (voltage reads) and reduction
// copies (charge deposits).
#pragma once

#include <cstdint>
#include <memory>

#include "apps/circuit/graph.h"
#include "exec/cost_model.h"
#include "ir/program.h"
#include "rt/runtime.h"

namespace cr::apps::circuit {

struct Config {
  uint32_t nodes = 1;           // machine nodes
  uint32_t pieces_per_node = 4;
  uint64_t nodes_per_piece = 64;
  uint64_t wires_per_piece = 256;
  double pct_cross = 0.1;
  uint64_t window = 2;
  uint64_t steps = 4;
  uint64_t seed = 42;
  double dt = 1e-2;
  double leakage = 0.0;  // 0 keeps sum(V*C) invariant (conservation test)
  // Virtual-cost calibration.
  double ns_per_wire = 10.0;
  double ns_per_node = 4.0;
  uint32_t voltage_virtual_bytes = 8;
};

struct App {
  Config config;
  // Generated once and shared with the kernels.
  std::shared_ptr<const Graph> graph;
  // Regions.
  rt::RegionId rn = rt::kNoId;  // circuit nodes
  rt::RegionId rw = rt::kNoId;  // wires
  // Node fields.
  rt::FieldId f_voltage = 0, f_charge = 0, f_cap = 0;
  // Wire fields.
  rt::FieldId f_current = 0, f_res = 0, f_in = 0, f_out = 0;
  // Partitions.
  rt::PartitionId top = rt::kNoId;     // private vs shared (disjoint)
  rt::RegionId all_private = rt::kNoId;
  rt::RegionId all_shared = rt::kNoId;
  rt::PartitionId p_pvt = rt::kNoId;   // private nodes by piece (disjoint)
  rt::PartitionId p_shr = rt::kNoId;   // owned shared nodes (disjoint)
  rt::PartitionId p_gst = rt::kNoId;   // ghost shared nodes (aliased)
  rt::PartitionId p_wires = rt::kNoId; // wires by piece (disjoint)
  uint64_t pieces = 0;
  ir::Program program;
};

App build(rt::Runtime& rt, const Config& config);

// The graph `build` generates for `config`: one piece per task, so
// nodes * pieces_per_node pieces.
GraphConfig graph_config(const Config& config);

// Figure 9's setup (paper §5.4; calibration table in EXPERIMENTS.md):
// the paper's 100k edges and 25k vertices per node scaled down to 11
// pieces of 128 nodes and 512 wires per node, 5% of the wires crossing
// to a piece at most 2 away, with the per-wire cost and ghost width
// chosen to match the paper's single-node rate and exchange volume.
Config figure_config(uint32_t nodes, uint64_t steps);

// Figure 9's cost model: Piz Daint without dynamic dependence tracking
// and the implicit master's per-point-task cost.
exec::CostModel figure_cost();

// Sum of V*C over all circuit nodes — invariant when leakage is 0.
// Computed from an execution engine's final root data by the tests.

}  // namespace cr::apps::circuit
