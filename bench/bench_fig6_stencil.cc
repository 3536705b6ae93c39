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
// is reported in *paper-scale* points per second per node. The setup is
// apps::stencil::figure_config and figure_cost; see EXPERIMENTS.md for
// the calibration table.
#include "apps/stencil/stencil.h"
#include "common.h"
#include "mapper_matrix.h"

namespace {

using namespace cr;
namespace stencil = apps::stencil;

// Paper problem: 40000^2 points/node at ~1500e6 points/s/node.
constexpr double kPaperPointsPerNode = 40000.0 * 40000.0;

// The MPI (one rank per core) or MPI+OpenMP (one rank per node)
// reference.
auto mpi(bool openmp) {
  return [openmp](const stencil::Config& cfg, const exec::CostModel& cost) {
    return stencil::run_mpi_baseline(cfg, openmp, cost);
  };
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench("stencil", argc, argv, bench::BenchKind::kMatrixSweep);
  const bench::Figure<stencil::Config, stencil::App> fig{
      stencil::figure_config, stencil::build, stencil::figure_cost(), 2, 6};
  // --mapper-matrix oversubscribes the cores (4 tiles per compute core)
  // so placement quality shows up as queueing rather than vanishing
  // behind idle cores.
  if (bench.options().mapper_matrix) {
    return bench::run_mapper_matrix(
        bench, fig, [](stencil::Config& cfg) { cfg.tasks_per_node *= 4; });
  }
  std::vector<bench::SeriesSpec> specs = bench::regent_series(bench, fig);
  specs.push_back(
      bench::reference_series("MPI", fig, mpi(false), bench::is_square_power));
  specs.push_back(bench::reference_series("MPI+OpenMP", fig, mpi(true),
                                          bench::is_square_power));
  return bench.report(bench.sweep(
      "Figure 6: Stencil weak scaling (40k^2 points/node)",
      "10^6 points/s per node", 1e6, kPaperPointsPerNode, 1.0, specs));
}
