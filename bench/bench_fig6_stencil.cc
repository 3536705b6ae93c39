// Figure 6: weak scaling for Stencil (PRK 2D star stencil, radius 2).
//
// Paper configuration: 40k^2 grid points per node, 12-core nodes; series
// Regent (with CR), Regent (w/o CR), MPI, MPI+OpenMP; MPI references run
// only at node counts with square process grids (even powers of two).
//
// The simulated problem is geometrically scaled down (11 tiles of 32^2
// per node, one tile per compute core) with per-point cost and per-halo-
// element width calibrated so that per-node iteration time and the
// communication/computation ratio match the paper's problem; throughput
// is reported in *paper-scale* points per second per node. See
// EXPERIMENTS.md for the calibration table.
#include <cstdio>

#include "apps/stencil/stencil.h"
#include "common.h"
#include "mapper_matrix.h"

namespace {

using namespace cr;
using apps::stencil::Config;

// Paper problem: 40000^2 points/node at ~1500e6 points/s/node.
constexpr double kPaperPointsPerNode = 40000.0 * 40000.0;
constexpr uint32_t kTilesPerNode = 11;  // one per compute core
constexpr uint64_t kTile = 32;

Config make_config(uint32_t nodes, uint64_t steps) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.tasks_per_node = kTilesPerNode;
  cfg.tile_x = kTile;
  cfg.tile_y = kTile;
  cfg.steps = steps;
  // Calibration: per-node per-iteration compute ~= 1.07 s (the paper's
  // single-node rate), spread over the scaled points; stencil + the two
  // increment launches weigh ~1.3x the base per-point cost.
  cfg.ns_per_point = 1.067e9 / static_cast<double>(kTile * kTile) / 1.15;
  // Halo width: the paper's node boundary is ~40000 x 2(radius) x 2 dirs
  // x 8 B ~= 2.6 MB/iter; our scaled ring moves ~5.5k elements per node.
  cfg.halo_virtual_bytes = 480;
  return cfg;
}

bench::PointRecord run_engine(bench::Bench& bench, uint32_t nodes,
                              bool spmd) {
  auto total = [&](uint64_t steps) {
    exec::CostModel cost = exec::CostModel::piz_daint();
    cost.track_dependences = false;
    // Master-side per-point-task cost without CR: dynamic dependence +
    // physical analysis + remote mapping, see EXPERIMENTS.md.
    cost.implicit_launch_ns = 2.0e6;
    Config cfg = make_config(nodes, steps);
    rt::Runtime rt(exec::runtime_config(nodes, 12, cost, false));
    apps::stencil::App app = apps::stencil::build(rt, cfg);
    exec::PreparedRun run = exec::prepare(
        rt, app.program,
        bench.config(spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit,
                     cost));
    return bench.run(run, spmd ? "stencil-cr" : "stencil-nocr", nodes);
  };
  return bench::steady_seconds(total, 2, 6);
}

// --mapper-matrix: the heterogeneous scenario with the cores
// oversubscribed (4 tiles per compute core) so placement quality shows
// up as queueing rather than vanishing behind idle cores.
int run_matrix(bench::Bench& bench) {
  return bench::run_mapper_matrix(
      bench, /*nodes=*/8, [&](const bench::MatrixCell& cell) {
        exec::CostModel cost = exec::CostModel::piz_daint();
        cost.track_dependences = false;
        Config cfg = make_config(cell.nodes, /*steps=*/3);
        cfg.tasks_per_node = 4 * kTilesPerNode;
        rt::RuntimeConfig rc = exec::runtime_config(cell.nodes, 12, cost,
                                                    /*real_data=*/false);
        cell.apply(rc);
        rt::Runtime rt(rc);
        apps::stencil::App app = apps::stencil::build(rt, cfg);
        exec::ExecConfig ecfg = bench.config(exec::ExecMode::kSpmd, cost);
        ecfg.mapper = cell.mapper;
        ecfg.check = true;
        exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
        return run.run();
      });
}

bench::PointRecord run_mpi(uint32_t nodes, bool openmp) {
  exec::CostModel cost = exec::CostModel::piz_daint();
  auto total = [&](uint64_t steps) {
    Config cfg = make_config(nodes, steps);
    return exec::to_seconds(
        apps::stencil::run_mpi_baseline(cfg, openmp, cost));
  };
  return bench::steady_seconds(total, 2, 6);
}

}  // namespace

int main(int argc, char** argv) {
  cr::bench::Bench bench("stencil", argc, argv,
                          cr::bench::BenchKind::kMatrixSweep);
  if (bench.options().mapper_matrix) return run_matrix(bench);
  std::vector<cr::bench::SeriesSpec> specs = {
      {"Regent (with CR)",
       [&](uint32_t n) { return run_engine(bench, n, true); }},
      {"Regent (w/o CR)",
       [&](uint32_t n) { return run_engine(bench, n, false); }},
      {"MPI", [](uint32_t n) { return run_mpi(n, false); },
       cr::bench::is_square_power},
      {"MPI+OpenMP", [](uint32_t n) { return run_mpi(n, true); },
       cr::bench::is_square_power},
  };
  auto report = bench.sweep(
      "Figure 6: Stencil weak scaling (40k^2 points/node)",
      "10^6 points/s per node", 1e6, kPaperPointsPerNode, 1.0, specs);
  std::printf("%s\n", report.to_table().c_str());
  bench.write_analysis_json(report);
  bench.write_metrics_json(report);
  return bench.finish();
}
