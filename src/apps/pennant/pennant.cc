#include "apps/pennant/pennant.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/common/bsp.h"
#include "ir/builder.h"
#include "rt/partition.h"
#include "support/check.h"
#include "support/hash.h"

namespace cr::apps::pennant {

App build(rt::Runtime& rt, const Config& config) {
  App app;
  app.config = config;
  app.pieces = static_cast<uint64_t>(config.nodes) * config.pieces_per_node;

  MeshConfig mc;
  mc.zones_x = config.zones_x_per_piece;
  mc.zones_y = config.zones_y;
  mc.pieces = app.pieces;
  app.mesh = make_mesh(mc);
  const Mesh mesh = app.mesh;  // captured by kernels (value copy)

  rt::RegionForest& forest = rt.forest();

  // --- regions ---------------------------------------------------------
  auto zfs = std::make_shared<rt::FieldSpace>();
  app.f_zm = zfs->add_field("zm");
  app.f_ze = zfs->add_field("ze");
  app.f_zr = zfs->add_field("zr");
  app.f_zp = zfs->add_field("zp");
  app.f_zvol = zfs->add_field("zvol");
  app.rz = forest.create_region(rt::IndexSpace::dense(mesh.num_zones()),
                                zfs, "Z");

  auto pfs = std::make_shared<rt::FieldSpace>();
  app.f_px = pfs->add_field("px", rt::FieldType::kF64,
                            config.point_virtual_bytes);
  app.f_py = pfs->add_field("py", rt::FieldType::kF64,
                            config.point_virtual_bytes);
  app.f_pu = pfs->add_field("pu");
  app.f_pv = pfs->add_field("pv");
  app.f_pfx = pfs->add_field("pfx");
  app.f_pfy = pfs->add_field("pfy");
  app.f_pmass = pfs->add_field("pmass");
  app.rp = forest.create_region(rt::IndexSpace::dense(mesh.num_points()),
                                pfs, "P");

  // --- partitions ------------------------------------------------------
  // Ids are column-major, so a piece's zones are one run and every point
  // column is a run of one color.
  const uint64_t zones_per_piece = mc.zones_x * mc.zones_y;
  app.p_zones = rt::partition_by_color(
      forest, app.rz, app.pieces,
      [mesh, zones_per_piece](uint64_t z) {
        const uint64_t piece = mesh.zone_piece(z);
        return rt::ColorRun{piece, (piece + 1) * zones_per_piece};
      },
      "zones");

  const uint64_t col = mesh.points_y_total();
  app.top = rt::partition_by_color(
      forest, app.rp, 2,
      [mesh, col](uint64_t p) {
        const uint64_t px = mesh.point_px(p);
        return rt::ColorRun{mesh.point_col_shared(px) ? 1u : 0u,
                            (px + 1) * col};
      },
      "pvs");
  app.all_private = forest.subregion(app.top, 0);
  app.all_shared = forest.subregion(app.top, 1);
  auto column_piece = [mesh, col](uint64_t p) {
    return rt::ColorRun{mesh.point_piece(p), (mesh.point_px(p) + 1) * col};
  };
  app.p_pvt = rt::partition_by_color(forest, app.all_private, app.pieces,
                                     column_piece, "ppvt");
  app.p_shr = rt::partition_by_color(forest, app.all_shared, app.pieces,
                                     column_piece, "pshr");

  // Ghosts: piece i > 0 reads the shared column at its left edge, owned
  // by piece i-1.
  {
    const rt::IndexSpace& shared_is = forest.region(app.all_shared).ispace;
    std::vector<rt::IndexSpace> subs;
    subs.reserve(app.pieces);
    for (uint64_t i = 0; i < app.pieces; ++i) {
      support::IntervalSet pts;
      if (i > 0) {
        const uint64_t px = i * mc.zones_x;
        const uint64_t lo = mesh.point_id(px, 0);
        pts = support::IntervalSet::range(lo, lo + mesh.points_y_total());
      }
      subs.push_back(shared_is.subspace(
          pts.set_intersect(shared_is.points())));
    }
    app.p_gst = forest.create_partition(app.all_shared, std::move(subs),
                                        /*disjoint=*/false,
                                        /*complete=*/false, "pgst");
  }

  // --- program ---------------------------------------------------------
  ir::ProgramBuilder b(forest, "pennant");
  using P = rt::Privilege;
  using B = ir::ProgramBuilder;

  app.s_dt = b.scalar("dt", config.dt_init);
  app.s_dtrec = b.scalar("dtrec", config.dt_max);

  const rt::FieldId zm = app.f_zm, ze = app.f_ze, zr = app.f_zr,
                    zp = app.f_zp, zvol = app.f_zvol;
  const rt::FieldId px = app.f_px, py = app.f_py, pu = app.f_pu,
                    pv = app.f_pv, pfx = app.f_pfx, pfy = app.f_pfy,
                    pmass = app.f_pmass;
  const double gamma = config.gamma;
  const double cfl = config.cfl;
  const double dt_max = config.dt_max;
  const double zone_area = mc.dx * mc.dy;

  ir::TaskId t_init_zones = b.task(
      "init_zones",
      {{P::kWriteDiscard, rt::ReduceOp::kSum, {zm, ze, zr, zp, zvol}}},
      800, 0.5 * config.ns_per_zone,
      [zm, ze, zr, zp, zvol, zone_area](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t z) {
          const double rho = 1.0 + 0.2 * support::hash_unit(z * 5 + 1);
          ctx.write_f64(0, zr, z, rho);
          ctx.write_f64(0, zm, z, rho * zone_area);
          ctx.write_f64(0, ze, z, 1.0 + 0.5 * support::hash_unit(z * 9 + 4));
          ctx.write_f64(0, zp, z, 0.0);
          ctx.write_f64(0, zvol, z, zone_area);
        });
      });

  ir::TaskId t_init_points = b.task(
      "init_points",
      {{P::kWriteDiscard, rt::ReduceOp::kSum,
        {px, py, pu, pv, pfx, pfy, pmass}}},
      800, 0.5 * config.ns_per_point,
      [mesh, px, py, pu, pv, pfx, pfy, pmass,
       zone_area](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t p) {
          ctx.write_f64(0, px, p, mesh.point_x(p));
          ctx.write_f64(0, py, p, mesh.point_y(p));
          ctx.write_f64(0, pu, p, 0.0);
          ctx.write_f64(0, pv, p, 0.0);
          ctx.write_f64(0, pfx, p, 0.0);
          ctx.write_f64(0, pfy, p, 0.0);
          ctx.write_f64(0, pmass, p, zone_area);  // uniform lumped mass
        });
      });

  ir::TaskId t_reset = b.task(
      "reset_forces", {{P::kReadWrite, rt::ReduceOp::kSum, {pfx, pfy}}},
      500, 0.2 * config.ns_per_point,
      [pfx, pfy](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t p) {
          ctx.write_f64(0, pfx, p, 0.0);
          ctx.write_f64(0, pfy, p, 0.0);
        });
      });

  // Volumes (shoelace over the corner coordinates), EOS pressure, and
  // corner forces reduced into the points.
  ir::TaskId t_forces = b.task(
      "calc_forces",
      {{P::kReadWrite, rt::ReduceOp::kSum, {zp, zvol, zr}},
       {P::kReadOnly, rt::ReduceOp::kSum, {zm, ze}},
       {P::kReadOnly, rt::ReduceOp::kSum, {px, py}},   // private coords
       {P::kReadOnly, rt::ReduceOp::kSum, {px, py}},   // owned shared
       {P::kReadOnly, rt::ReduceOp::kSum, {px, py}},   // ghosts
       {P::kReadWrite, rt::ReduceOp::kSum, {pfx, pfy}},  // private forces
       {P::kReduce, rt::ReduceOp::kSum, {pfx, pfy}},     // owned shared
       {P::kReduce, rt::ReduceOp::kSum, {pfx, pfy}}},    // ghosts
      3000, config.ns_per_zone,
      [mesh, gamma, zm, ze, zr, zp, zvol, px, py, pfx,
       pfy](ir::TaskContext& ctx) {
        auto coord = [&](uint64_t p, rt::FieldId f) {
          for (size_t k : {size_t{2}, size_t{3}, size_t{4}}) {
            if (ctx.param_domain(k).contains(p)) {
              return ctx.read_f64(k, f, p);
            }
          }
          CR_CHECK_MSG(false, "point not covered");
          return 0.0;
        };
        auto deposit = [&](uint64_t p, double fx, double fy) {
          if (ctx.param_domain(5).contains(p)) {
            ctx.write_f64(5, pfx, p, ctx.read_f64(5, pfx, p) + fx);
            ctx.write_f64(5, pfy, p, ctx.read_f64(5, pfy, p) + fy);
          } else if (ctx.param_domain(6).contains(p)) {
            ctx.reduce_f64(6, pfx, p, fx);
            ctx.reduce_f64(6, pfy, p, fy);
          } else {
            ctx.reduce_f64(7, pfx, p, fx);
            ctx.reduce_f64(7, pfy, p, fy);
          }
        };
        ctx.domain().points().for_each_point([&](uint64_t z) {
          uint64_t c[4];
          mesh.zone_points(z, c);
          double x[4], y[4];
          for (int k = 0; k < 4; ++k) {
            x[k] = coord(c[k], px);
            y[k] = coord(c[k], py);
          }
          // Shoelace area (counterclockwise corners).
          double area = 0;
          for (int k = 0; k < 4; ++k) {
            const int n = (k + 1) % 4;
            area += x[k] * y[n] - x[n] * y[k];
          }
          area *= 0.5;
          const double vol = std::max(area, 1e-12);
          const double rho = ctx.read_f64(1, zm, z) / vol;
          const double p = (gamma - 1.0) * rho * ctx.read_f64(1, ze, z);
          ctx.write_f64(0, zvol, z, vol);
          ctx.write_f64(0, zr, z, rho);
          ctx.write_f64(0, zp, z, p);
          // Corner forces toward the centroid, scaled by pressure; they
          // sum to zero per zone (momentum conservation).
          const double cx = (x[0] + x[1] + x[2] + x[3]) * 0.25;
          const double cy = (y[0] + y[1] + y[2] + y[3]) * 0.25;
          for (int k = 0; k < 4; ++k) {
            deposit(c[k], p * (x[k] - cx), p * (y[k] - cy));
          }
        });
      });

  ir::TaskId t_adv = b.task(
      "adv_points",
      {{P::kReadWrite, rt::ReduceOp::kSum, {pu, pv, px, py}},
       {P::kReadOnly, rt::ReduceOp::kSum, {pfx, pfy, pmass}}},
      1500, config.ns_per_point,
      [px, py, pu, pv, pfx, pfy, pmass](ir::TaskContext& ctx) {
        const double dt = ctx.scalar(0);
        ctx.domain().points().for_each_point([&](uint64_t p) {
          const double m = ctx.read_f64(1, pmass, p);
          const double u =
              ctx.read_f64(0, pu, p) + dt * ctx.read_f64(1, pfx, p) / m;
          const double v =
              ctx.read_f64(0, pv, p) + dt * ctx.read_f64(1, pfy, p) / m;
          ctx.write_f64(0, pu, p, u);
          ctx.write_f64(0, pv, p, v);
          ctx.write_f64(0, px, p, ctx.read_f64(0, px, p) + dt * u);
          ctx.write_f64(0, py, p, ctx.read_f64(0, py, p) + dt * v);
        });
      });

  ir::TaskId t_calc_dt = b.task(
      "calc_dt", {{P::kReadOnly, rt::ReduceOp::kSum, {zvol, zp, zr}}},
      1200, 0.4 * config.ns_per_zone,
      [zvol, zp, zr, gamma, cfl](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t z) {
          const double vol = ctx.read_f64(0, zvol, z);
          const double sound = std::sqrt(
              gamma * std::max(ctx.read_f64(0, zp, z), 1e-12) /
              std::max(ctx.read_f64(0, zr, z), 1e-12));
          ctx.reduce_scalar(cfl * std::sqrt(vol) / (sound + 1e-12));
        });
      });

  b.index_launch(t_init_zones, app.pieces,
                 {B::arg(app.p_zones, P::kWriteDiscard,
                         {zm, ze, zr, zp, zvol})});
  b.index_launch(t_init_points, app.pieces,
                 {B::arg(app.p_pvt, P::kWriteDiscard,
                         {px, py, pu, pv, pfx, pfy, pmass})});
  b.index_launch(t_init_points, app.pieces,
                 {B::arg(app.p_shr, P::kWriteDiscard,
                         {px, py, pu, pv, pfx, pfy, pmass})});
  b.begin_for_time(config.steps);
  b.index_launch(t_reset, app.pieces,
                 {B::arg(app.p_pvt, P::kReadWrite, {pfx, pfy})});
  b.index_launch(t_reset, app.pieces,
                 {B::arg(app.p_shr, P::kReadWrite, {pfx, pfy})});
  b.index_launch(t_forces, app.pieces,
                 {B::arg(app.p_zones, P::kReadWrite, {zp, zvol, zr}),
                  B::arg(app.p_zones, P::kReadOnly, {zm, ze}),
                  B::arg(app.p_pvt, P::kReadOnly, {px, py}),
                  B::arg(app.p_shr, P::kReadOnly, {px, py}),
                  B::arg(app.p_gst, P::kReadOnly, {px, py}),
                  B::arg(app.p_pvt, P::kReadWrite, {pfx, pfy}),
                  B::arg(app.p_shr, P::kReduce, {pfx, pfy},
                         rt::ReduceOp::kSum),
                  B::arg(app.p_gst, P::kReduce, {pfx, pfy},
                         rt::ReduceOp::kSum)});
  b.index_launch(t_adv, app.pieces,
                 {B::arg(app.p_pvt, P::kReadWrite, {pu, pv, px, py}),
                  B::arg(app.p_pvt, P::kReadOnly, {pfx, pfy, pmass})},
                 {app.s_dt});
  b.index_launch(t_adv, app.pieces,
                 {B::arg(app.p_shr, P::kReadWrite, {pu, pv, px, py}),
                  B::arg(app.p_shr, P::kReadOnly, {pfx, pfy, pmass})},
                 {app.s_dt});
  b.index_launch_red(t_calc_dt, app.pieces,
                     {B::arg(app.p_zones, P::kReadOnly, {zvol, zp, zr})},
                     {app.s_dtrec, rt::ReduceOp::kMin});
  b.scalar_op({app.s_dtrec, app.s_dt}, {app.s_dt},
              [dt_max](const std::vector<double>& in,
                       std::vector<double>& out) {
                // dt grows at most 20% per cycle and never exceeds the
                // stability candidate or the configured maximum.
                const double dtrec = in[1];
                const double dt_old = in[0];
                out[0] = std::min({dt_max, dtrec, 1.2 * dt_old});
              },
              "dt_update");
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
  bsp.iterations = config.steps;
  const uint32_t ranks = bsp.nodes * bsp.ranks_per_node;

  // Work per rank per cycle: all zone and point loops of the cycle.
  const double zones_per_rank =
      static_cast<double>(config.pieces_per_node) *
      config.zones_x_per_piece * config.zones_y * config.nodes / ranks;
  // Weight calibrated so 12 reference cores match the Regent kernel
  // chain on 11 compute cores (the runtime-core gap of §5.3).
  const double cycle_ns =
      zones_per_rank * (config.ns_per_zone * 1.47 + config.ns_per_point);
  const double base = rank_per_node ? cycle_ns / cores : cycle_ns;
  bsp.compute_ns = [base, noise](uint32_t r, uint64_t it) {
    return base * noise_factor(r * 1315423911ull + it * 2654435761ull,
                               noise);
  };
  // OpenMP forks/joins several parallel loops per cycle.
  bsp.rank_overhead_ns = rank_per_node ? 90000 : 2500;

  // 1D strip decomposition: exchange boundary point columns with both
  // x-neighbors (6 fields per point).
  const uint64_t col_bytes = (config.zones_y + 1) * 6 *
                             config.point_virtual_bytes;
  bsp.sends = [ranks, col_bytes](uint32_t r) {
    std::vector<BspMessage> out;
    if (r > 0) out.push_back({r - 1, col_bytes});
    if (r + 1 < ranks) out.push_back({r + 1, col_bytes});
    return out;
  };
  // The reference's dt reduction is a *blocking* MPI_Allreduce.
  bsp.allreduce_per_iteration = true;
  return run_bsp(bsp, cost);
}

Config figure_config(uint32_t nodes, uint64_t steps) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 11;
  cfg.zones_x_per_piece = 24;
  cfg.zones_y = 24;
  cfg.steps = steps;
  // Paper single-node (MPI, 12 cores) ~15e6 zones/s => ~0.49 s per cycle
  // per node; forces + dt loops weigh ~1.9x + 0.4x the per-zone base.
  const double zones_per_piece =
      static_cast<double>(cfg.zones_x_per_piece) * cfg.zones_y;
  cfg.ns_per_zone = 1.33 * 0.49e9 / (2.3 * zones_per_piece) / (12.0 / 11.0);
  cfg.ns_per_point = 0.3 * cfg.ns_per_zone;
  // Shared point-column exchange (~6 doubles per boundary point on a
  // 3700-point edge in the paper): widen the scaled columns to match.
  cfg.point_virtual_bytes = 1024;
  return cfg;
}

exec::CostModel figure_cost() {
  exec::CostModel cost = exec::CostModel::piz_daint();
  cost.track_dependences = false;
  cost.implicit_launch_ns = 330000;
  const Noise noise = figure_noise(/*rank_per_node=*/false);
  cost.task_slow_prob = noise.slow_prob;
  cost.task_slow_frac = noise.slow_frac;
  return cost;
}

Noise figure_noise(bool rank_per_node) {
  return {1.0 / 64.0, rank_per_node ? 0.75 : 0.30};
}

}  // namespace cr::apps::pennant
