// Example: PENNANT-style Lagrangian hydrodynamics with a dynamic
// timestep (paper §4.4 / §5.3).
//
// The per-cycle stable-dt candidate is MIN-reduced across all pieces by
// a dynamic collective and broadcast back into every shard's replicated
// scalar environment; the example prints the dt trajectory and verifies
// the collective produced exactly the sequential semantics' values.
//
//   $ ./examples/hydro_dt
#include <cstdio>

#include "apps/pennant/pennant.h"
#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"

using namespace cr;

int main() {
  apps::pennant::Config cfg;
  cfg.nodes = 4;
  cfg.pieces_per_node = 2;
  cfg.zones_x_per_piece = 10;
  cfg.zones_y = 12;
  cfg.dt_init = 2e-4;

  exec::CostModel cost = exec::CostModel::piz_daint();
  std::printf("PENNANT proxy, %u nodes, %llu zones; dt trajectory:\n",
              cfg.nodes,
              (unsigned long long)(cfg.nodes * cfg.pieces_per_node *
                                   cfg.zones_x_per_piece * cfg.zones_y));
  std::printf("%-8s %-14s %-14s %-10s\n", "cycles", "dt (spmd)",
              "dt (oracle)", "match");
  bool all_ok = true;
  for (uint64_t steps : {1u, 2u, 4u, 8u}) {
    cfg.steps = steps;
    rt::Runtime rt(exec::runtime_config(cfg.nodes, 12, cost, true));
    apps::pennant::App app = apps::pennant::build(rt, cfg);
    exec::SequentialResult oracle = exec::run_sequential(app.program);
    exec::ExecConfig ecfg;
    ecfg.cost = cost;
    ecfg.mode = exec::ExecMode::kSpmd;
    exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
    run.run();
    const double dt_spmd = run.engine->scalar(app.s_dt);
    const double dt_seq = oracle.scalar(app.s_dt);
    const bool ok = std::abs(dt_spmd - dt_seq) < 1e-15;
    all_ok = all_ok && ok;
    std::printf("%-8llu %-14.6e %-14.6e %-10s\n",
                (unsigned long long)steps, dt_spmd, dt_seq,
                ok ? "yes" : "NO");
  }
  std::printf(
      "\nthe dynamic collective reproduces the sequential dt chain: %s\n",
      all_ok ? "YES" : "NO");
  return all_ok ? 0 : 1;
}
