// PENNANT: the Lagrangian hydrodynamics proxy application of paper §5.3.
//
// Each cycle of the (simplified but real) staggered-grid Lagrangian
// scheme runs:
//   reset_forces   — zero the point force accumulators;
//   calc_forces    — per zone: volume from corner coordinates
//                    (shoelace), density, EOS pressure, corner forces
//                    reduced into the points (region reductions into
//                    shared/ghost points, paper §4.3);
//   adv_points     — integrate point velocity and position with dt;
//   calc_dt        — per-zone stable-dt candidates folded by a MIN
//                    scalar reduction into a dynamic collective, then
//                    dt = min(dtmax, growth cap) (paper §4.4) — the
//                    global reduction whose latency CR hides (§5.3).
//
// Points use the private/shared/ghost hierarchical structure; shared
// point columns are exchanged between neighbor pieces.
#pragma once

#include <cstdint>

#include "apps/common/bsp.h"
#include "apps/pennant/mesh2d.h"
#include "exec/cost_model.h"
#include "ir/program.h"
#include "rt/runtime.h"

namespace cr::apps::pennant {

struct Config {
  uint32_t nodes = 1;
  uint32_t pieces_per_node = 2;
  uint64_t zones_x_per_piece = 12;
  uint64_t zones_y = 12;
  uint64_t steps = 4;
  double gamma = 5.0 / 3.0;
  double dt_init = 1e-3;
  double dt_max = 1e-2;
  double cfl = 0.3;
  // Virtual-cost calibration.
  double ns_per_zone = 20.0;
  double ns_per_point = 8.0;
  uint32_t point_virtual_bytes = 8;
};

struct App {
  Config config;
  Mesh mesh;
  // Regions.
  rt::RegionId rz = rt::kNoId;  // zones
  rt::RegionId rp = rt::kNoId;  // points
  // Zone fields.
  rt::FieldId f_zm = 0, f_ze = 0, f_zr = 0, f_zp = 0, f_zvol = 0;
  // Point fields.
  rt::FieldId f_px = 0, f_py = 0, f_pu = 0, f_pv = 0, f_pfx = 0,
              f_pfy = 0, f_pmass = 0;
  // Partitions.
  rt::PartitionId p_zones = rt::kNoId;  // disjoint by piece
  rt::PartitionId top = rt::kNoId;      // private vs shared points
  rt::RegionId all_private = rt::kNoId;
  rt::RegionId all_shared = rt::kNoId;
  rt::PartitionId p_pvt = rt::kNoId;
  rt::PartitionId p_shr = rt::kNoId;  // owned shared (disjoint)
  rt::PartitionId p_gst = rt::kNoId;  // neighbor shared (aliased)
  uint64_t pieces = 0;
  // Scalars.
  ir::ScalarId s_dt = 0, s_dtrec = 0;
  ir::Program program;
};

App build(rt::Runtime& rt, const Config& config);

// Hand-written SPMD references: PENNANT's MPI (rank/core) and
// MPI+OpenMP (rank/node) codes, both with the *blocking* per-cycle dt
// allreduce and using all 12 cores (no runtime core). `noise` injects
// the heavy-tailed system variability the blocking collective amplifies
// (§5.3).
sim::Time run_mpi_baseline(const Config& config, bool rank_per_node,
                           const exec::CostModel& cost,
                           const Noise& noise);

}  // namespace cr::apps::pennant
