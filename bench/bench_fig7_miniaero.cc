// Figure 7: weak scaling for MiniAero (3D unstructured-mesh explicit
// Navier-Stokes, 512k cells per node). Series: Regent (with CR), Regent
// (w/o CR), MPI+Kokkos rank/core, MPI+Kokkos rank/node.
//
// §5.2 effects reproduced: the Regent version out-performs the
// references on a single node (the reference pays a ~1.3x data-layout
// penalty per cell); the rank-per-node configuration starts ahead of
// rank-per-core but falls to its level as node count grows (its
// single-threaded MPI progress serializes the stage exchanges, while
// rank/core overlaps twelve flows). The setup is
// apps::miniaero::figure_config, figure_cost and figure_noise.
#include "apps/miniaero/miniaero.h"
#include "common.h"

namespace {

using namespace cr;
namespace miniaero = apps::miniaero;

constexpr double kPaperCellsPerNode = 512.0 * 1024.0;

// The MPI+Kokkos reference with one rank per core or per node.
auto mpi_kokkos(bool rank_per_node) {
  return [rank_per_node](const miniaero::Config& cfg,
                         const exec::CostModel& cost) {
    return miniaero::run_mpi_baseline(cfg, rank_per_node, cost,
                                      miniaero::figure_noise(rank_per_node));
  };
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench("miniaero", argc, argv, bench::BenchKind::kSweep);
  const bench::Figure<miniaero::Config, miniaero::App> fig{
      miniaero::figure_config, miniaero::build, miniaero::figure_cost(), 2,
      5};
  std::vector<bench::SeriesSpec> specs = bench::regent_series(bench, fig);
  specs.push_back(bench::reference_series("MPI+Kokkos rank/core", fig,
                                          mpi_kokkos(false)));
  specs.push_back(bench::reference_series("MPI+Kokkos rank/node", fig,
                                          mpi_kokkos(true)));
  return bench.report(bench.sweep(
      "Figure 7: MiniAero weak scaling (512k cells/node)",
      "10^3 cells/s per node", 1e3, kPaperCellsPerNode, 1.0, specs));
}
