// Figure 8: weak scaling for PENNANT (Lagrangian hydrodynamics, 7.4M
// zones per node). Series: Regent (with CR), Regent (w/o CR), MPI,
// MPI+OpenMP.
//
// The §5.3 effects reproduced here:
//  - Regent's single-node throughput is below the references because one
//    core per node is dedicated to runtime analysis (11/12 compute);
//  - the references block on the per-cycle dt MPI_Allreduce, so
//    heavy-tailed system noise costs them the max across all ranks every
//    cycle, while Regent's deferred execution (dynamic collective +
//    futures) only pays the mean — CR overtakes them at scale.
// The setup is apps::pennant::figure_config, figure_cost and
// figure_noise.
#include "apps/pennant/pennant.h"
#include "common.h"

namespace {

using namespace cr;
namespace pennant = apps::pennant;

constexpr double kPaperZonesPerNode = 7.4e6;

// The MPI (one rank per core) or MPI+OpenMP (one rank per node)
// reference.
auto mpi(bool openmp) {
  return [openmp](const pennant::Config& cfg, const exec::CostModel& cost) {
    return pennant::run_mpi_baseline(cfg, openmp, cost,
                                     pennant::figure_noise(openmp));
  };
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench("pennant", argc, argv, bench::BenchKind::kSweep);
  const bench::Figure<pennant::Config, pennant::App> fig{
      pennant::figure_config, pennant::build, pennant::figure_cost(), 2, 6};
  std::vector<bench::SeriesSpec> specs = bench::regent_series(bench, fig);
  specs.push_back(bench::reference_series("MPI", fig, mpi(false)));
  specs.push_back(bench::reference_series("MPI+OpenMP", fig, mpi(true)));
  return bench.report(bench.sweep(
      "Figure 8: PENNANT weak scaling (7.4M zones/node)",
      "10^6 zones/s per node", 1e6, kPaperZonesPerNode, 1.0, specs));
}
