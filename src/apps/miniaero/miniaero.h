// MiniAero: the Mantevo 3D unstructured-mesh explicit compressible
// Navier-Stokes proxy (paper §5.2), reproduced as an explicit
// finite-volume Euler solver with low-storage RK4 time stepping.
//
// Cells carry 5 conserved variables (density, momentum, energy) in three
// buffers: the solution, the RK stage state, and the residual. Each RK
// stage computes face fluxes (Rusanov) from the stage state of the cell
// and its 6 face neighbors, then advances the stage state; the final
// stage becomes the next solution. Ghost exchanges of the stage state
// happen once per stage — four halo exchanges per timestep, the
// communication pattern that dominates MiniAero.
//
// The cell region uses the paper-§4.5 hierarchical split: cells within
// one layer of their piece's slab boundary are `boundary`, the rest
// `interior` and provably communication-free.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "apps/common/bsp.h"
#include "exec/cost_model.h"
#include "ir/program.h"
#include "rt/runtime.h"

namespace cr::apps::miniaero {

struct Config {
  uint32_t nodes = 1;
  uint32_t pieces_per_node = 2;
  uint64_t cells_x_per_piece = 6;  // slab depth per piece
  uint64_t cells_y = 8;
  uint64_t cells_z = 8;
  uint64_t steps = 2;
  uint32_t rk_stages = 4;
  double dt = 1e-3;
  double gamma = 1.4;
  // Virtual-cost calibration.
  double ns_per_cell = 40.0;  // per cell per stage (flux + update)
  uint32_t state_virtual_bytes = 40;  // 5 doubles per exchanged cell
};

struct App {
  Config config;
  rt::RegionId rc = rt::kNoId;  // cells
  // 5 fields per buffer: [rho, mx, my, mz, energy].
  std::array<rt::FieldId, 5> f_sol{};
  std::array<rt::FieldId, 5> f_stage{};
  std::array<rt::FieldId, 5> f_res{};
  rt::PartitionId top = rt::kNoId;  // interior vs boundary (disjoint)
  rt::RegionId interior = rt::kNoId;
  rt::RegionId boundary = rt::kNoId;
  rt::PartitionId p_int = rt::kNoId;
  rt::PartitionId p_bnd = rt::kNoId;
  rt::PartitionId p_halo = rt::kNoId;  // neighbor boundary layers
  uint64_t pieces = 0;
  rt::GridExtents extents;  // cell grid (x = pieces * cells_x)
  ir::Program program;

  uint64_t cells_per_node() const {
    return config.pieces_per_node * config.cells_x_per_piece *
           config.cells_y * config.cells_z;
  }
};

App build(rt::Runtime& rt, const Config& config);

// MPI+Kokkos references (paper §5.2): rank-per-core and rank-per-node
// configurations. The reference pays a data-layout penalty per cell
// relative to the Legion version (structure slicing, [7] in the paper).
sim::Time run_mpi_baseline(const Config& config, bool rank_per_node,
                           const exec::CostModel& cost,
                           const Noise& noise);

// Figure 7's setup (paper §5.2; calibration table in EXPERIMENTS.md):
// the paper's 512k cells per node scaled down to 11 slabs of 4x8x8 cells
// per node, with the per-cell cost and face width chosen to match the
// paper's single-node rate and exchange volume.
Config figure_config(uint32_t nodes, uint64_t steps);

// Figure 7's cost model: Piz Daint without dynamic dependence tracking,
// the implicit master's per-point-task cost, and the rank-per-core
// references' system noise on every task.
exec::CostModel figure_cost();

// Figure 7's system noise for the references: one rank per node is hit
// harder than one rank per core.
Noise figure_noise(bool rank_per_node);

}  // namespace cr::apps::miniaero
