// Example: the PRK stencil application end to end with real data.
//
// Builds the paper-§5.1 stencil on a simulated 8-node machine, runs it
// with and without control replication, validates the result against the
// PRK closed form, and compares the two executions' control-plane
// behavior — the 10x difference in control-thread busy time is the
// paper's whole point, visible on 8 nodes.
//
//   $ ./examples/heat_grid
#include <cstdio>

#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"

using namespace cr;

int main() {
  apps::stencil::Config cfg;
  cfg.nodes = 8;
  cfg.tasks_per_node = 4;
  cfg.tile_x = 24;
  cfg.tile_y = 24;
  cfg.steps = 6;
  cfg.ns_per_point = 20000;  // ~12 ms tasks

  // Runs the stencil with or without CR and returns the node-0 control
  // core's busy time.
  auto run = [&](bool with_cr) {
    exec::CostModel cost = exec::CostModel::piz_daint();
    rt::Runtime rt(exec::runtime_config(cfg.nodes, 12, cost, true));
    apps::stencil::App app = apps::stencil::build(rt, cfg);
    exec::ExecConfig ecfg;
    ecfg.cost = cost;
    ecfg.mode = with_cr ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit;
    exec::PreparedRun prepared = exec::prepare(rt, app.program, ecfg);
    exec::ExecutionResult res = prepared.run();
    auto count = [&](const char* key) {
      return (unsigned long long)support::count_of(res.metrics, key);
    };

    // Validate against the PRK closed form at a few interior points.
    const auto& e = rt.forest().region(app.r_out).ispace.extents();
    bool ok = true;
    for (int64_t x = 4; x < static_cast<int64_t>(e.n[0]) - 4; x += 17) {
      for (int64_t y = 4; y < static_cast<int64_t>(e.n[1]) - 4; y += 13) {
        const double got =
            prepared.engine->read_root_f64(app.r_out, app.f_out,
                                           e.linearize(x, y));
        const double want =
            apps::stencil::expected_interior(cfg, cfg.steps, x, y);
        if (std::abs(got - want) > 1e-9) ok = false;
      }
    }
    std::printf(
        "%-12s makespan %8.3f ms   control-core busy %8.3f ms   "
        "%6llu tasks  %5llu copies  result %s\n",
        with_cr ? "with CR" : "without CR",
        static_cast<double>(res.makespan_ns) * 1e-6,
        static_cast<double>(count("exec.control_busy_ns")) * 1e-6,
        count("exec.point_tasks"), count("exec.copies_issued"),
        ok ? "OK" : "WRONG");
    return count("exec.control_busy_ns");
  };

  std::printf("PRK stencil, 8 simulated nodes, %llu tiles:\n",
              (unsigned long long)(cfg.nodes * cfg.tasks_per_node));
  const unsigned long long with_cr = run(true);
  const unsigned long long without = run(false);
  std::printf(
      "\ncontrol replication shrinks the node-0 control core's work "
      "%.1fx\n",
      static_cast<double>(without) / static_cast<double>(with_cr));
  return 0;
}
