#include "apps/stencil/stencil.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/common/bsp.h"
#include "ir/builder.h"
#include "rt/partition.h"
#include "support/check.h"

namespace cr::apps::stencil {

namespace {

// Nearly square factorization a*b = n with a <= b.
void factorize(uint64_t n, uint64_t& a, uint64_t& b) {
  a = static_cast<uint64_t>(std::sqrt(static_cast<double>(n)));
  while (a > 1 && n % a != 0) --a;
  b = n / a;
}

// Star weights w_i = 1 / (4 i H_r): symmetric and normalized so the
// stencil of a linear field is exact (star(x + y + t) = x + y + t).
std::vector<double> star_weights(int64_t radius) {
  double harmonic = 0;
  for (int64_t i = 1; i <= radius; ++i) {
    harmonic += 1.0 / static_cast<double>(i);
  }
  std::vector<double> w(static_cast<size_t>(radius) + 1, 0.0);
  for (int64_t i = 1; i <= radius; ++i) {
    w[static_cast<size_t>(i)] =
        1.0 / (4.0 * static_cast<double>(i) * harmonic);
  }
  return w;
}

}  // namespace

App build(rt::Runtime& rt, const Config& config) {
  App app;
  app.config = config;
  app.total_tiles =
      static_cast<uint64_t>(config.nodes) * config.tasks_per_node;
  factorize(app.total_tiles, app.tiles_x, app.tiles_y);

  const uint64_t gx = app.tiles_x * config.tile_x;
  const uint64_t gy = app.tiles_y * config.tile_y;
  const rt::GridExtents extents = rt::GridExtents::d2(gx, gy);
  const int64_t radius = config.radius;
  CR_CHECK_MSG(config.tile_x > 2 * static_cast<uint64_t>(radius) &&
                   config.tile_y > 2 * static_cast<uint64_t>(radius),
               "tiles must be larger than twice the stencil radius");

  rt::RegionForest& forest = rt.forest();

  auto out_fs = std::make_shared<rt::FieldSpace>();
  app.f_out = out_fs->add_field("out");
  app.r_out = forest.create_region(rt::IndexSpace::grid(extents), out_fs,
                                   "out_grid");
  app.out_tiles = rt::partition_grid(forest, app.r_out,
                                     {app.tiles_x, app.tiles_y, 1}, "otile");

  auto in_fs = std::make_shared<rt::FieldSpace>();
  app.f_in = in_fs->add_field("in", rt::FieldType::kF64,
                              config.halo_virtual_bytes);
  app.r_in = forest.create_region(rt::IndexSpace::grid(extents), in_fs,
                                  "in_grid");

  // Hierarchical split (paper §4.5): interior points are farther than
  // `radius` from their tile's edge; the rest form the boundary rings.
  // Ids run along y, so both colorings are y-runs. A column within
  // `radius` of a tile's x-edge is one boundary run; any other column
  // splits, in every tile, into a boundary, an interior and a boundary
  // band. The tile color changes at each tile's y-edge.
  const uint64_t tx = config.tile_x, ty = config.tile_y;
  const uint64_t r = static_cast<uint64_t>(radius);
  app.top = rt::partition_by_color(
      forest, app.r_in, 2,
      [tx, ty, r, gy](uint64_t id) {
        const uint64_t x = id / gy, y = id % gy;
        const uint64_t lx = x % tx, ly = y % ty;
        const uint64_t tile_lo = id - ly;
        if (lx < r || lx >= tx - r) return rt::ColorRun{1, id - y + gy};
        if (ly < r) return rt::ColorRun{1, tile_lo + r};
        if (ly < ty - r) return rt::ColorRun{0, tile_lo + ty - r};
        return rt::ColorRun{1, tile_lo + ty};
      },
      "int_v_bnd");
  app.interior = forest.subregion(app.top, 0);
  app.boundary = forest.subregion(app.top, 1);

  auto tile_of = [tx, ty, gy, tiles_y = app.tiles_y](uint64_t id) {
    const uint64_t x = id / gy, y = id % gy;
    return rt::ColorRun{x / tx * tiles_y + y / ty, id - y % ty + ty};
  };
  app.p_int = rt::partition_by_color(forest, app.interior, app.total_tiles,
                                     tile_of, "int");
  app.p_bnd = rt::partition_by_color(forest, app.boundary, app.total_tiles,
                                     tile_of, "bnd");

  // Halo: the star's reach from each tile, clipped to the boundary
  // region (interior points provably never communicate).
  {
    const rt::IndexSpace& bnd_is = forest.region(app.boundary).ispace;
    std::vector<rt::IndexSpace> subs;
    subs.reserve(app.total_tiles);
    for (uint64_t cx = 0; cx < app.tiles_x; ++cx) {
      for (uint64_t cy = 0; cy < app.tiles_y; ++cy) {
        rt::Rect r = rt::Rect::d2(
            static_cast<int64_t>(cx * tx), static_cast<int64_t>(cy * ty),
            static_cast<int64_t>((cx + 1) * tx),
            static_cast<int64_t>((cy + 1) * ty));
        rt::Rect ex = r, ey = r;
        ex.lo[0] = std::max<int64_t>(0, r.lo[0] - radius);
        ex.hi[0] = std::min<int64_t>(static_cast<int64_t>(gx),
                                     r.hi[0] + radius);
        ey.lo[1] = std::max<int64_t>(0, r.lo[1] - radius);
        ey.hi[1] = std::min<int64_t>(static_cast<int64_t>(gy),
                                     r.hi[1] + radius);
        auto pts = extents.rect_ids(ex).set_union(extents.rect_ids(ey));
        subs.push_back(bnd_is.subspace(
            pts.set_intersect(bnd_is.points())));
      }
    }
    app.p_halo = forest.create_partition(app.boundary, std::move(subs),
                                         /*disjoint=*/false,
                                         /*complete=*/false, "halo");
  }

  // --- program ---------------------------------------------------------

  ir::ProgramBuilder b(forest, "stencil");
  using P = rt::Privilege;
  using B = ir::ProgramBuilder;

  const auto weights = star_weights(radius);
  const rt::GridExtents ext_copy = extents;
  const rt::FieldId f_in = app.f_in, f_out = app.f_out;

  // PRK initialization: in(x, y) = x + y (launched once per in-subset),
  // out = 0.
  ir::TaskId t_init_in = b.task(
      "init_in", {{P::kWriteDiscard, rt::ReduceOp::kSum, {f_in}}}, 1000,
      0.2 * config.ns_per_point,
      [ext_copy, f_in](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t id) {
          int64_t x, y, z;
          ext_copy.delinearize(id, x, y, z);
          ctx.write_f64(0, f_in, id, static_cast<double>(x + y));
        });
      });
  ir::TaskId t_init_out = b.task(
      "init_out", {{P::kWriteDiscard, rt::ReduceOp::kSum, {f_out}}}, 1000,
      0.1 * config.ns_per_point,
      [f_out](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point(
            [&](uint64_t id) { ctx.write_f64(0, f_out, id, 0.0); });
      });

  // out += star(in): writes the tile of out, reads in through the three
  // coverage arguments (own interior, own ring, neighbor rings).
  ir::TaskId t_stencil = b.task(
      "stencil",
      {{P::kReadWrite, rt::ReduceOp::kSum, {f_out}},
       {P::kReadOnly, rt::ReduceOp::kSum, {f_in}},    // interior
       {P::kReadOnly, rt::ReduceOp::kSum, {f_in}},    // own ring
       {P::kReadOnly, rt::ReduceOp::kSum, {f_in}}},   // halo rings
      2000, config.ns_per_point,
      [ext_copy, weights, radius, f_in, f_out](ir::TaskContext& ctx) {
        const int64_t gx = static_cast<int64_t>(ext_copy.n[0]);
        const int64_t gy = static_cast<int64_t>(ext_copy.n[1]);
        auto in_at = [&](int64_t x, int64_t y) {
          const uint64_t id = ext_copy.linearize(x, y);
          for (size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
            if (ctx.param_domain(k).contains(id)) {
              return ctx.read_f64(k, f_in, id);
            }
          }
          CR_CHECK_MSG(false, "point not covered by any input argument");
          return 0.0;
        };
        ctx.domain().points().for_each_point([&](uint64_t id) {
          int64_t x, y, z;
          ext_copy.delinearize(id, x, y, z);
          if (x < radius || x >= gx - radius || y < radius ||
              y >= gy - radius) {
            return;  // PRK computes interior points only
          }
          double acc = 0;
          for (int64_t i = 1; i <= radius; ++i) {
            const double w = weights[static_cast<size_t>(i)];
            acc += w * (in_at(x + i, y) + in_at(x - i, y) +
                        in_at(x, y + i) + in_at(x, y - i));
          }
          ctx.write_f64(0, f_out, id, ctx.read_f64(0, f_out, id) + acc);
        });
      });

  // in += 1, applied per in-subset (interior and ring launches).
  ir::TaskId t_increment = b.task(
      "increment", {{P::kReadWrite, rt::ReduceOp::kSum, {f_in}}}, 1000,
      0.15 * config.ns_per_point,
      [f_in](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t id) {
          ctx.write_f64(0, f_in, id, ctx.read_f64(0, f_in, id) + 1.0);
        });
      });

  b.index_launch(t_init_in, app.total_tiles,
                 {B::arg(app.p_int, P::kWriteDiscard, {f_in})});
  b.index_launch(t_init_in, app.total_tiles,
                 {B::arg(app.p_bnd, P::kWriteDiscard, {f_in})});
  b.index_launch(t_init_out, app.total_tiles,
                 {B::arg(app.out_tiles, P::kWriteDiscard, {f_out})});
  b.begin_for_time(config.steps);
  b.index_launch(t_stencil, app.total_tiles,
                 {B::arg(app.out_tiles, P::kReadWrite, {f_out}),
                  B::arg(app.p_int, P::kReadOnly, {f_in}),
                  B::arg(app.p_bnd, P::kReadOnly, {f_in}),
                  B::arg(app.p_halo, P::kReadOnly, {f_in})});
  b.index_launch(t_increment, app.total_tiles,
                 {B::arg(app.p_int, P::kReadWrite, {f_in})});
  b.index_launch(t_increment, app.total_tiles,
                 {B::arg(app.p_bnd, P::kReadWrite, {f_in})});
  b.end_for_time();
  app.program = b.finish();
  return app;
}

double expected_interior(const Config& config, uint64_t steps, int64_t x,
                         int64_t y) {
  // out(T) = sum_{t=0}^{T-1} (x + y + t) = T (x + y) + T (T - 1) / 2.
  (void)config;
  const double T = static_cast<double>(steps);
  return T * static_cast<double>(x + y) + T * (T - 1) / 2.0;
}

sim::Time run_mpi_baseline(const Config& config, bool rank_per_node,
                           const exec::CostModel& cost) {
  const uint32_t cores = 12;
  BspConfig bsp;
  bsp.nodes = config.nodes;
  bsp.ranks_per_node = rank_per_node ? 1 : cores;
  bsp.cores_per_node = cores;
  bsp.iterations = config.steps;

  const uint64_t points_per_node =
      static_cast<uint64_t>(config.tasks_per_node) * config.tile_x *
      config.tile_y;
  const uint32_t ranks = bsp.nodes * bsp.ranks_per_node;
  uint64_t rx, ry;
  factorize(ranks, ry, rx);
  // Per-rank subgrid (in scaled grid points).
  const double points_per_rank =
      static_cast<double>(points_per_node) * config.nodes / ranks;
  const double px = std::sqrt(points_per_rank * static_cast<double>(rx) /
                              static_cast<double>(ry));
  const double py = points_per_rank / px;

  // MPI computes with every core (no runtime core reservation); one rank
  // per node threads the same work across the node with a fork/join
  // overhead per parallel loop (the OpenMP model of §5.1).
  // The stencil kernel plus the increment sweep: ~1.3x the base
  // per-point cost, matching the Regent execution's task pair.
  const double compute =
      1.3 * (rank_per_node ? points_per_node * config.ns_per_point / cores
                           : points_per_rank * config.ns_per_point);
  bsp.compute_ns = [compute](uint32_t, uint64_t) { return compute; };
  bsp.rank_overhead_ns = rank_per_node ? 20000 : 1500;

  const uint64_t bytes_x = static_cast<uint64_t>(
      static_cast<double>(config.radius) * py * config.halo_virtual_bytes);
  const uint64_t bytes_y = static_cast<uint64_t>(
      static_cast<double>(config.radius) * px * config.halo_virtual_bytes);
  bsp.sends = [ranks, rx, bytes_x, bytes_y](uint32_t r) {
    std::vector<BspMessage> out;
    const uint32_t cx = r % static_cast<uint32_t>(rx);
    if (cx > 0) out.push_back({r - 1, bytes_x});
    if (cx + 1 < rx) out.push_back({r + 1, bytes_x});
    if (r >= rx) out.push_back({r - static_cast<uint32_t>(rx), bytes_y});
    if (r + rx < ranks) {
      out.push_back({r + static_cast<uint32_t>(rx), bytes_y});
    }
    return out;
  };
  return run_bsp(bsp, cost);
}

}  // namespace cr::apps::stencil
