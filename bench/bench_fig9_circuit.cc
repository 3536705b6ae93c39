// Figure 9: weak scaling for Circuit (sparse circuit simulation on a
// random graph, 100k edges + 25k vertices per node). Series: Regent
// (with CR) and Regent (w/o CR) — the paper has no MPI reference for
// this application.
#include <cstdio>

#include "apps/circuit/circuit.h"
#include "common.h"
#include "mapper_matrix.h"

namespace {

using namespace cr;
using apps::circuit::Config;

constexpr double kPaperNodesPerMachineNode = 25000.0;

Config make_config(uint32_t nodes, uint64_t steps) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 11;  // one piece per compute core
  cfg.nodes_per_piece = 128;
  cfg.wires_per_piece = 512;
  cfg.pct_cross = 0.05;
  cfg.window = 2;
  cfg.steps = steps;
  // Paper single-node rate ~80e3 graph nodes/s => ~0.31 s per iteration
  // per machine node; the CNC + DC wire loops dominate.
  cfg.ns_per_wire =
      0.31e9 / (1.6 * static_cast<double>(cfg.wires_per_piece));
  cfg.ns_per_node = 0.2 * cfg.ns_per_wire;
  // Ghost voltage exchange: a few hundred shared nodes per piece in the
  // paper's graph; scale the per-element width to a ~1 MB/node/iter
  // exchange.
  cfg.voltage_virtual_bytes = 2048;
  return cfg;
}

bench::PointRecord run_engine(bench::Bench& bench, uint32_t nodes,
                              bool spmd) {
  auto total = [&](uint64_t steps) {
    exec::CostModel cost = exec::CostModel::piz_daint();
    cost.track_dependences = false;
    cost.implicit_launch_ns = 300000;
    Config cfg = make_config(nodes, steps);
    rt::Runtime rt(exec::runtime_config(nodes, 12, cost, false));
    apps::circuit::App app = apps::circuit::build(rt, cfg);
    exec::PreparedRun run = exec::prepare(
        rt, app.program,
        bench.config(spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit,
                     cost));
    return bench.run(run, spmd ? "circuit-cr" : "circuit-nocr", nodes);
  };
  return cr::bench::steady_seconds(total, 2, 5);
}

// --mapper-matrix: the heterogeneous scenario with the cores
// oversubscribed (3 pieces per compute core).
int run_matrix(bench::Bench& bench) {
  return bench::run_mapper_matrix(
      bench, /*nodes=*/8, [&](const bench::MatrixCell& cell) {
        exec::CostModel cost = exec::CostModel::piz_daint();
        cost.track_dependences = false;
        Config cfg = make_config(cell.nodes, /*steps=*/3);
        cfg.pieces_per_node = 33;
        rt::RuntimeConfig rc = exec::runtime_config(cell.nodes, 12, cost,
                                                    /*real_data=*/false);
        cell.apply(rc);
        rt::Runtime rt(rc);
        apps::circuit::App app = apps::circuit::build(rt, cfg);
        exec::ExecConfig ecfg = bench.config(exec::ExecMode::kSpmd, cost);
        ecfg.mapper = cell.mapper;
        ecfg.check = true;
        exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
        return run.run();
      });
}

}  // namespace

int main(int argc, char** argv) {
  cr::bench::Bench bench("circuit", argc, argv,
                          cr::bench::BenchKind::kMatrixSweep);
  if (bench.options().mapper_matrix) return run_matrix(bench);
  std::vector<cr::bench::SeriesSpec> specs = {
      {"Regent (with CR)", [&](uint32_t n) { return run_engine(bench, n, true); }},
      {"Regent (w/o CR)", [&](uint32_t n) { return run_engine(bench, n, false); }},
  };
  auto report = bench.sweep(
      "Figure 9: Circuit weak scaling (100k edges + 25k vertices/node)",
      "10^3 nodes/s per node", 1e3, kPaperNodesPerMachineNode, 1.0, specs);
  std::printf("%s\n", report.to_table().c_str());
  bench.write_analysis_json(report);
  bench.write_metrics_json(report);
  return bench.finish();
}
