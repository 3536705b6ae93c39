// Stencil: the PRK 2D star-shaped stencil benchmark (paper §5.1).
//
// A regular grid of double-precision values is tiled across the machine;
// each iteration applies a radius-R star stencil (out += star(in)) and
// then increments the input (in += 1) — the PRK kernel pair.
//
// The input field uses the hierarchical region structure of paper §4.5:
// the grid is first split into *interior* points (never communicated; at
// least `radius` away from every tile edge) and *boundary* rings. Tiles
// of the interior are provably disjoint from the halo partition, so the
// compiler emits ring-sized copies only — perimeter, not area, traffic.
//
// PRK initializes in(x, y) = x + y; with symmetric normalized star
// weights the stencil of a linear field is exact, so interior points have
// the closed form checked by the tests.
#pragma once

#include <cstdint>

#include "exec/cost_model.h"
#include "ir/program.h"
#include "rt/runtime.h"

namespace cr::apps::stencil {

struct Config {
  uint32_t nodes = 1;
  uint32_t tasks_per_node = 4;  // tiles owned by each node
  uint64_t tile_x = 32;         // tile extent (grid points)
  uint64_t tile_y = 32;
  uint64_t steps = 4;
  int64_t radius = 2;
  // Virtual-cost calibration (see EXPERIMENTS.md): ns of compute per
  // grid point and modeled bytes per halo element.
  double ns_per_point = 1.2;
  uint32_t halo_virtual_bytes = 8;
};

struct App {
  Config config;
  // out lives in its own region with a plain tile partition; in lives in
  // the hierarchically partitioned region (Fig. 5 structure).
  rt::RegionId r_out = rt::kNoId;
  rt::RegionId r_in = rt::kNoId;
  rt::FieldId f_out = 0;
  rt::FieldId f_in = 0;
  rt::PartitionId out_tiles = rt::kNoId;  // disjoint, complete
  rt::PartitionId top = rt::kNoId;        // interior vs boundary
  rt::RegionId interior = rt::kNoId;
  rt::RegionId boundary = rt::kNoId;
  rt::PartitionId p_int = rt::kNoId;   // tile interiors (disjoint)
  rt::PartitionId p_bnd = rt::kNoId;   // tile rings (disjoint)
  rt::PartitionId p_halo = rt::kNoId;  // star reach ∩ boundary (aliased)
  uint64_t tiles_x = 0, tiles_y = 0;
  uint64_t total_tiles = 0;
  ir::Program program;

  uint64_t points_per_node() const {
    return config.tasks_per_node * config.tile_x * config.tile_y;
  }
};

// Build the region tree and the implicitly parallel program.
App build(rt::Runtime& rt, const Config& config);

// Closed-form interior value of `out` after `steps` iterations at grid
// point (x, y) (valid where the star never reaches the global boundary).
double expected_interior(const Config& config, uint64_t steps, int64_t x,
                         int64_t y);

// Hand-written SPMD references (virtual time only): the PRK MPI code
// (one rank per core) and MPI+OpenMP (one rank per node).
sim::Time run_mpi_baseline(const Config& config, bool rank_per_node,
                           const exec::CostModel& cost);

// Figure 6's setup (paper §5.1; calibration table in EXPERIMENTS.md):
// the paper's 40k^2 points per node scaled down to 11 tiles of 32^2 per
// node, one per compute core, with the per-point cost and halo width
// chosen so per-node iteration time and the communication/computation
// ratio match the paper's problem.
Config figure_config(uint32_t nodes, uint64_t steps);

// Figure 6's cost model: Piz Daint without dynamic dependence tracking
// (the sweep charges the implicit master per launch instead) and that
// master's per-point-task cost.
exec::CostModel figure_cost();

}  // namespace cr::apps::stencil
