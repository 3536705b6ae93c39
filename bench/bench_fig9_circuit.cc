// Figure 9: weak scaling for Circuit (sparse circuit simulation on a
// random graph, 100k edges + 25k vertices per node). Series: Regent
// (with CR) and Regent (w/o CR) — the paper has no MPI reference for
// this application. The setup is apps::circuit::figure_config and
// figure_cost.
#include "apps/circuit/circuit.h"
#include "common.h"
#include "mapper_matrix.h"

namespace {

using namespace cr;
namespace circuit = apps::circuit;

constexpr double kPaperNodesPerMachineNode = 25000.0;

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench("circuit", argc, argv, bench::BenchKind::kMatrixSweep);
  const bench::Figure<circuit::Config, circuit::App> fig{
      circuit::figure_config, circuit::build, circuit::figure_cost(), 2, 5};
  // --mapper-matrix oversubscribes the cores (3 pieces per compute core).
  if (bench.options().mapper_matrix) {
    return bench::run_mapper_matrix(
        bench, fig, [](circuit::Config& cfg) { cfg.pieces_per_node *= 3; });
  }
  return bench.report(bench.sweep(
      "Figure 9: Circuit weak scaling (100k edges + 25k vertices/node)",
      "10^3 nodes/s per node", 1e3, kPaperNodesPerMachineNode, 1.0,
      bench::regent_series(bench, fig)));
}
