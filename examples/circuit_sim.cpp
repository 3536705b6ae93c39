// Example: the sparse circuit simulation (paper §5.4) with real data.
//
// Demonstrates the hierarchical private/shared region idiom and region
// reductions: wire currents deposit charge into nodes owned by other
// pieces through reduction copies. With zero leakage the total V*C over
// the circuit is an invariant the run checks every configuration against.
//
//   $ ./examples/circuit_sim
#include <cstdio>

#include "apps/circuit/circuit.h"
#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"

using namespace cr;

int main() {
  apps::circuit::Config cfg;
  cfg.nodes = 6;
  cfg.pieces_per_node = 2;
  cfg.nodes_per_piece = 48;
  cfg.wires_per_piece = 160;
  cfg.pct_cross = 0.12;
  cfg.steps = 8;
  cfg.leakage = 0.0;  // conservation check

  exec::CostModel cost = exec::CostModel::piz_daint();
  rt::Runtime rt(exec::runtime_config(cfg.nodes, 12, cost, true));
  apps::circuit::App app = apps::circuit::build(rt, cfg);

  uint64_t shared = 0;
  for (bool s : app.graph->shared) shared += s ? 1 : 0;
  std::printf(
      "circuit: %llu nodes (%llu shared), %llu wires, %llu pieces on %u "
      "machine nodes\n",
      (unsigned long long)app.graph->num_nodes(), (unsigned long long)shared,
      (unsigned long long)app.graph->num_wires(),
      (unsigned long long)app.pieces, cfg.nodes);

  exec::SequentialResult oracle = exec::run_sequential(app.program);
  exec::ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = exec::ExecMode::kSpmd;
  exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
  exec::ExecutionResult res = run.run();
  auto count = [&](const char* key) {
    return (unsigned long long)support::count_of(res.metrics, key);
  };

  double vc0 = 0, vc1 = 0;
  bool match = true;
  for (uint64_t n = 0; n < app.graph->num_nodes(); ++n) {
    const double v = run.engine->read_root_f64(app.rn, app.f_voltage, n);
    const double c = run.engine->read_root_f64(app.rn, app.f_cap, n);
    vc1 += v * c;
    vc0 += oracle.read_f64(app.rn, app.f_voltage, n) *
           oracle.read_f64(app.rn, app.f_cap, n);
    if (std::abs(v - oracle.read_f64(app.rn, app.f_voltage, n)) > 1e-11) {
      match = false;
    }
  }
  std::printf("SPMD matches sequential oracle: %s\n", match ? "YES" : "NO");
  std::printf("sum(V*C): spmd %.9f vs oracle %.9f (invariant)\n", vc1, vc0);
  std::printf(
      "virtual makespan %.3f ms; %llu tasks, %llu copies "
      "(%llu empty pairs skipped by the intersection optimization), "
      "%llu intersection pairs\n",
      static_cast<double>(res.makespan_ns) * 1e-6,
      count("exec.point_tasks"), count("exec.copies_issued"),
      count("exec.copies_skipped"), count("exec.intersection_pairs"));
  return match ? 0 : 1;
}
