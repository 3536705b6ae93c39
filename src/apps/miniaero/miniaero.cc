#include "apps/miniaero/miniaero.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/common/bsp.h"
#include "ir/builder.h"
#include "rt/partition.h"
#include "support/check.h"

namespace cr::apps::miniaero {

namespace {

double hash01(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Conserved state and the Euler flux in direction d with Rusanov
// dissipation.
struct State {
  double rho, mx, my, mz, en;
};

double pressure(const State& u, double gamma) {
  const double ke =
      0.5 * (u.mx * u.mx + u.my * u.my + u.mz * u.mz) / u.rho;
  return (gamma - 1.0) * (u.en - ke);
}

void rusanov_flux(const State& a, const State& b, int d, double gamma,
                  double out[5]) {
  auto mom = [](const State& u, int k) {
    return k == 0 ? u.mx : (k == 1 ? u.my : u.mz);
  };
  auto flux = [&](const State& u, double f[5]) {
    const double p = pressure(u, gamma);
    const double vd = mom(u, d) / u.rho;
    f[0] = mom(u, d);
    f[1] = u.mx * vd + (d == 0 ? p : 0.0);
    f[2] = u.my * vd + (d == 1 ? p : 0.0);
    f[3] = u.mz * vd + (d == 2 ? p : 0.0);
    f[4] = (u.en + p) * vd;
  };
  double fa[5], fb[5];
  flux(a, fa);
  flux(b, fb);
  const double ca =
      std::sqrt(gamma * std::max(pressure(a, gamma), 1e-12) / a.rho);
  const double cb =
      std::sqrt(gamma * std::max(pressure(b, gamma), 1e-12) / b.rho);
  const double lam = std::max(std::abs(mom(a, d) / a.rho) + ca,
                              std::abs(mom(b, d) / b.rho) + cb);
  const double ub[5] = {b.rho, b.mx, b.my, b.mz, b.en};
  const double ua[5] = {a.rho, a.mx, a.my, a.mz, a.en};
  for (int k = 0; k < 5; ++k) {
    out[k] = 0.5 * (fa[k] + fb[k]) - 0.5 * lam * (ub[k] - ua[k]);
  }
}

}  // namespace

App build(rt::Runtime& rt, const Config& config) {
  App app;
  app.config = config;
  app.pieces = static_cast<uint64_t>(config.nodes) * config.pieces_per_node;
  const uint64_t nx = app.pieces * config.cells_x_per_piece;
  const uint64_t ny = config.cells_y, nz = config.cells_z;
  app.extents = rt::GridExtents::d3(nx, ny, nz);
  const rt::GridExtents ext = app.extents;
  const uint64_t cx = config.cells_x_per_piece;
  CR_CHECK_MSG(cx >= 2, "pieces need at least two cell layers");

  rt::RegionForest& forest = rt.forest();
  auto fs = std::make_shared<rt::FieldSpace>();
  const char* names[5] = {"rho", "mx", "my", "mz", "en"};
  for (int k = 0; k < 5; ++k) {
    app.f_sol[k] = fs->add_field(std::string("sol_") + names[k]);
  }
  for (int k = 0; k < 5; ++k) {
    // The stage state is what halo exchanges move; its virtual width
    // models the paper's 5-variable cell payload.
    app.f_stage[k] = fs->add_field(std::string("stg_") + names[k],
                                   rt::FieldType::kF64,
                                   config.state_virtual_bytes / 5);
  }
  for (int k = 0; k < 5; ++k) {
    app.f_res[k] = fs->add_field(std::string("res_") + names[k]);
  }
  app.rc = forest.create_region(rt::IndexSpace::grid(ext), fs, "cells");

  // Hierarchical split: boundary = cells within one layer of a slab
  // edge in x. Ids are x-major, so each x-layer of ny * nz cells is one
  // run of the split and each piece's slab is one run of its color.
  const uint64_t layer = ny * nz;
  app.top = rt::partition_by_color(
      forest, app.rc, 2,
      [cx, layer](uint64_t id) {
        const uint64_t x = id / layer, lx = x % cx;
        return rt::ColorRun{lx >= 1 && lx < cx - 1 ? 0u : 1u, (x + 1) * layer};
      },
      "int_v_bnd");
  app.interior = forest.subregion(app.top, 0);
  app.boundary = forest.subregion(app.top, 1);
  auto piece_of = [slab = cx * layer](uint64_t id) {
    const uint64_t piece = id / slab;
    return rt::ColorRun{piece, (piece + 1) * slab};
  };
  app.p_int = rt::partition_by_color(forest, app.interior, app.pieces,
                                     piece_of, "aint");
  app.p_bnd = rt::partition_by_color(forest, app.boundary, app.pieces,
                                     piece_of, "abnd");
  // Halo: the face layer of each neighboring slab.
  {
    const rt::IndexSpace& bnd_is = forest.region(app.boundary).ispace;
    std::vector<rt::IndexSpace> subs;
    for (uint64_t p = 0; p < app.pieces; ++p) {
      support::IntervalSet pts;
      if (p > 0) {
        const int64_t x = static_cast<int64_t>(p * cx) - 1;
        pts = pts.set_union(
            ext.rect_ids(rt::Rect::d3(x, 0, 0, x + 1,
                                      static_cast<int64_t>(ny),
                                      static_cast<int64_t>(nz))));
      }
      if (p + 1 < app.pieces) {
        const int64_t x = static_cast<int64_t>((p + 1) * cx);
        pts = pts.set_union(
            ext.rect_ids(rt::Rect::d3(x, 0, 0, x + 1,
                                      static_cast<int64_t>(ny),
                                      static_cast<int64_t>(nz))));
      }
      subs.push_back(bnd_is.subspace(
          pts.set_intersect(bnd_is.points())));
    }
    app.p_halo = forest.create_partition(app.boundary, std::move(subs),
                                         /*disjoint=*/false,
                                         /*complete=*/false, "ahalo");
  }

  // --- program ---------------------------------------------------------
  ir::ProgramBuilder b(forest, "miniaero");
  using P = rt::Privilege;
  using B = ir::ProgramBuilder;

  const auto f_sol = app.f_sol;
  const auto f_stage = app.f_stage;
  const auto f_res = app.f_res;
  const double gamma = config.gamma;

  std::vector<rt::FieldId> sol_v(f_sol.begin(), f_sol.end());
  std::vector<rt::FieldId> stage_v(f_stage.begin(), f_stage.end());
  std::vector<rt::FieldId> res_v(f_res.begin(), f_res.end());
  std::vector<rt::FieldId> sol_stage_v = sol_v;
  sol_stage_v.insert(sol_stage_v.end(), stage_v.begin(), stage_v.end());

  // Initialization: a smooth density/energy perturbation at rest.
  ir::TaskId t_init = b.task(
      "init", {{P::kWriteDiscard, rt::ReduceOp::kSum, sol_stage_v}}, 1000,
      0.3 * config.ns_per_cell,
      [ext, f_sol, f_stage](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t id) {
          int64_t x, y, z;
          ext.delinearize(id, x, y, z);
          const double rho =
              1.0 + 0.1 * std::sin(0.35 * static_cast<double>(x + y)) *
                        std::cos(0.21 * static_cast<double>(z));
          const double en = 2.0 + 0.05 * hash01(id * 13 + 7);
          const double vals[5] = {rho, 0.0, 0.0, 0.0, en};
          for (int k = 0; k < 5; ++k) {
            ctx.write_f64(0, f_sol[static_cast<size_t>(k)], id, vals[k]);
            ctx.write_f64(0, f_stage[static_cast<size_t>(k)], id, vals[k]);
          }
        });
      });

  // Residual from face fluxes of the stage state. The reader arguments
  // cover own interior, own boundary, and the neighbors' face layers;
  // out-of-domain neighbors mirror the cell (zero-gradient walls).
  auto make_residual_kernel = [ext, gamma, f_stage, f_res](
                                  size_t first_read_param,
                                  size_t num_read_params) {
    return [ext, gamma, f_stage, f_res, first_read_param,
            num_read_params](ir::TaskContext& ctx) {
      auto load = [&](uint64_t id) {
        for (size_t k = first_read_param;
             k < first_read_param + num_read_params; ++k) {
          if (ctx.param_domain(k).contains(id)) {
            return State{ctx.read_f64(k, f_stage[0], id),
                         ctx.read_f64(k, f_stage[1], id),
                         ctx.read_f64(k, f_stage[2], id),
                         ctx.read_f64(k, f_stage[3], id),
                         ctx.read_f64(k, f_stage[4], id)};
          }
        }
        CR_CHECK_MSG(false, "cell not covered by any stage argument");
        return State{};
      };
      const int64_t n[3] = {static_cast<int64_t>(ext.n[0]),
                            static_cast<int64_t>(ext.n[1]),
                            static_cast<int64_t>(ext.n[2])};
      ctx.domain().points().for_each_point([&](uint64_t id) {
        int64_t c[3];
        ext.delinearize(id, c[0], c[1], c[2]);
        const State uc = load(id);
        double res[5] = {0, 0, 0, 0, 0};
        for (int d = 0; d < 3; ++d) {
          for (int s = -1; s <= 1; s += 2) {
            int64_t nb[3] = {c[0], c[1], c[2]};
            nb[d] += s;
            State un = uc;  // zero-gradient wall
            if (nb[d] >= 0 && nb[d] < n[d]) {
              un = load(ext.linearize(nb[0], nb[1], nb[2]));
            }
            double f[5];
            // Outward flux through this face: sign s picks direction.
            if (s > 0) {
              rusanov_flux(uc, un, d, gamma, f);
              for (int k = 0; k < 5; ++k) res[k] -= f[k];
            } else {
              rusanov_flux(un, uc, d, gamma, f);
              for (int k = 0; k < 5; ++k) res[k] += f[k];
            }
          }
        }
        for (int k = 0; k < 5; ++k) {
          ctx.write_f64(0, f_res[static_cast<size_t>(k)], id, res[k]);
        }
      });
    };
  };

  ir::TaskId t_res_int = b.task(
      "residual_int",
      {{P::kReadWrite, rt::ReduceOp::kSum, res_v},
       {P::kReadOnly, rt::ReduceOp::kSum, stage_v},   // own interior
       {P::kReadOnly, rt::ReduceOp::kSum, stage_v}},  // own boundary
      3000, config.ns_per_cell, make_residual_kernel(1, 2));
  ir::TaskId t_res_bnd = b.task(
      "residual_bnd",
      {{P::kReadWrite, rt::ReduceOp::kSum, res_v},
       {P::kReadOnly, rt::ReduceOp::kSum, stage_v},   // own boundary
       {P::kReadOnly, rt::ReduceOp::kSum, stage_v},   // own interior
       {P::kReadOnly, rt::ReduceOp::kSum, stage_v}},  // neighbor layers
      3000, config.ns_per_cell, make_residual_kernel(1, 3));

  // Low-storage RK stage: stage = sol + alpha * dt * res.
  struct StageTasks {
    ir::TaskId update;
  };
  std::vector<double> alphas;
  for (uint32_t k = 0; k < config.rk_stages; ++k) {
    alphas.push_back(config.dt /
                     static_cast<double>(config.rk_stages - k));
  }
  auto make_update_kernel = [f_sol, f_stage, f_res](double alpha) {
    return [f_sol, f_stage, f_res, alpha](ir::TaskContext& ctx) {
      ctx.domain().points().for_each_point([&](uint64_t id) {
        for (size_t k = 0; k < 5; ++k) {
          ctx.write_f64(0, f_stage[k], id,
                        ctx.read_f64(1, f_sol[k], id) +
                            alpha * ctx.read_f64(1, f_res[k], id));
        }
      });
    };
  };
  std::vector<ir::TaskId> t_update(config.rk_stages);
  std::vector<rt::FieldId> sol_res_v = sol_v;
  sol_res_v.insert(sol_res_v.end(), res_v.begin(), res_v.end());
  for (uint32_t k = 0; k < config.rk_stages; ++k) {
    t_update[k] = b.task(
        "update_stage" + std::to_string(k),
        {{P::kReadWrite, rt::ReduceOp::kSum, stage_v},
         {P::kReadOnly, rt::ReduceOp::kSum, sol_res_v}},
        1200, 0.3 * config.ns_per_cell, make_update_kernel(alphas[k]));
  }

  // Commit: sol = stage (after the last stage).
  ir::TaskId t_commit = b.task(
      "commit",
      {{P::kReadWrite, rt::ReduceOp::kSum, sol_v},
       {P::kReadOnly, rt::ReduceOp::kSum, stage_v}},
      1000, 0.2 * config.ns_per_cell,
      [f_sol, f_stage](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t id) {
          for (size_t k = 0; k < 5; ++k) {
            ctx.write_f64(0, f_sol[k], id,
                          ctx.read_f64(1, f_stage[k], id));
          }
        });
      });

  b.index_launch(t_init, app.pieces,
                 {B::arg(app.p_int, P::kWriteDiscard, sol_stage_v)});
  b.index_launch(t_init, app.pieces,
                 {B::arg(app.p_bnd, P::kWriteDiscard, sol_stage_v)});
  b.begin_for_time(config.steps);
  for (uint32_t k = 0; k < config.rk_stages; ++k) {
    b.index_launch(t_res_int, app.pieces,
                   {B::arg(app.p_int, P::kReadWrite, res_v),
                    B::arg(app.p_int, P::kReadOnly, stage_v),
                    B::arg(app.p_bnd, P::kReadOnly, stage_v)});
    b.index_launch(t_res_bnd, app.pieces,
                   {B::arg(app.p_bnd, P::kReadWrite, res_v),
                    B::arg(app.p_bnd, P::kReadOnly, stage_v),
                    B::arg(app.p_int, P::kReadOnly, stage_v),
                    B::arg(app.p_halo, P::kReadOnly, stage_v)});
    b.index_launch(t_update[k], app.pieces,
                   {B::arg(app.p_int, P::kReadWrite, stage_v),
                    B::arg(app.p_int, P::kReadOnly, sol_res_v)});
    b.index_launch(t_update[k], app.pieces,
                   {B::arg(app.p_bnd, P::kReadWrite, stage_v),
                    B::arg(app.p_bnd, P::kReadOnly, sol_res_v)});
  }
  b.index_launch(t_commit, app.pieces,
                 {B::arg(app.p_int, P::kReadWrite, sol_v),
                  B::arg(app.p_int, P::kReadOnly, stage_v)});
  b.index_launch(t_commit, app.pieces,
                 {B::arg(app.p_bnd, P::kReadWrite, sol_v),
                  B::arg(app.p_bnd, P::kReadOnly, stage_v)});
  b.end_for_time();
  app.program = b.finish();
  return app;
}

sim::Time run_mpi_baseline(const Config& config, bool rank_per_node,
                           const exec::CostModel& cost,
                           const Noise& noise) {
  const uint32_t cores = 12;
  BspConfig bsp;
  bsp.nodes = config.nodes;
  bsp.ranks_per_node = rank_per_node ? 1 : cores;
  bsp.cores_per_node = cores;
  // Each RK stage is a communication epoch.
  bsp.iterations = config.steps * config.rk_stages;
  const uint32_t ranks = bsp.nodes * bsp.ranks_per_node;

  // The reference pays ~1.3x per cell for its data layout relative to
  // the Legion version (paper §5.2 / [7]).
  const double layout_penalty = 1.3;
  const double cells_per_node =
      static_cast<double>(config.pieces_per_node) *
      config.cells_x_per_piece * config.cells_y * config.cells_z;
  const double cells_per_rank = cells_per_node * config.nodes / ranks;
  // 1.3x for the residual+update kernel pair (same as the Regent
  // execution), then the layout penalty on top.
  const double stage_ns =
      cells_per_rank * config.ns_per_cell * 1.3 * layout_penalty;
  const double base = rank_per_node ? stage_ns / cores : stage_ns;
  bsp.compute_ns = [base, noise](uint32_t r, uint64_t it) {
    return base * noise_factor(r * 2654435761ull + it * 40503ull, noise);
  };
  bsp.rank_overhead_ns = rank_per_node ? 35000 : 3000;

  // 1D slab decomposition in x: exchange one face layer (5 variables)
  // with both neighbors each stage.
  const uint64_t face_bytes =
      config.cells_y * config.cells_z * config.state_virtual_bytes;
  bsp.sends = [ranks, face_bytes](uint32_t r) {
    std::vector<BspMessage> out;
    if (r > 0) out.push_back({r - 1, face_bytes});
    if (r + 1 < ranks) out.push_back({r + 1, face_bytes});
    return out;
  };
  return run_bsp(bsp, cost);
}

}  // namespace cr::apps::miniaero
