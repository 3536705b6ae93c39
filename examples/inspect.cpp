// cr-inspect: build any of the four evaluation applications at a chosen
// scale and look inside the system — the region forest (compare the
// paper's Figures 3 and 5), the program before and after control
// replication (Figures 2 and 4), the pipeline report, and optionally a
// Chrome-trace timeline of the simulated execution.
//
//   $ ./examples/inspect circuit 4 trace.json
//   $ ./examples/inspect stencil 2
//   usage: inspect {stencil|circuit|pennant|miniaero} [nodes] [trace.json]
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "apps/circuit/circuit.h"
#include "apps/miniaero/miniaero.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "ir/printer.h"

using namespace cr;

namespace {

// False when the requested trace file cannot be written.
bool inspect(rt::Runtime& rt, ir::Program program, const char* trace_path) {
  exec::CostModel cost = exec::CostModel::piz_daint();
  std::printf("==== region forest ====\n%s\n",
              rt.forest().to_string().c_str());
  std::printf("==== implicitly parallel program ====\n%s\n",
              ir::to_string(program).c_str());

  exec::ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = exec::ExecMode::kSpmd;
  ecfg.trace = trace_path != nullptr;
  exec::PreparedRun run = exec::prepare(rt, std::move(program), ecfg);
  std::printf("==== after control replication ====\n%s\n",
              ir::to_string(*run.program).c_str());
  // Pass counters live in the runtime's registry; a pass that did not
  // run recorded none, so a missing key reads as 0.
  const std::map<std::string, double> snap = rt.metrics().snapshot();
  auto pass = [&](const char* key) {
    return (unsigned long long)support::count_of(snap,
                                                 std::string("passes.") + key);
  };
  std::printf(
      "==== pipeline report ====\n"
      "fragment statements     %llu\n"
      "projections normalized  %llu\n"
      "init / inner / final    %llu / %llu / %llu copies\n"
      "reductions rewritten    %llu\n"
      "copies removed/hoisted  %llu / %llu\n"
      "intersection tables     %llu\n"
      "collectives             %llu\n"
      "p2p copies / barriers   %llu / %llu\n\n",
      pass("fragment.statements"), pass("projection-normalize.normalized"),
      pass("data-replication.init_copies"),
      pass("data-replication.inner_copies"),
      pass("data-replication.finalize_copies"),
      pass("region-reduction.rewritten"), pass("copy-placement.removed"),
      pass("copy-placement.hoisted"), pass("intersection-opt.tables"),
      pass("scalar-reduction.collectives"), pass("sync-insertion.p2p_copies"),
      pass("sync-insertion.barriers"));

  exec::ExecutionResult res = run.run();
  auto count = [&](const char* key) {
    return (unsigned long long)support::count_of(res.metrics, key);
  };
  std::printf(
      "==== execution ====\n"
      "virtual makespan  %.3f ms\n"
      "point tasks       %llu\n"
      "copies            %llu (+%llu empty pairs skipped)\n"
      "bytes moved       %llu\n"
      "messages          %llu\n"
      "intersections     %llu nonempty pairs\n",
      static_cast<double>(res.makespan_ns) * 1e-6,
      count("exec.point_tasks"), count("exec.copies_issued"),
      count("exec.copies_skipped"), count("exec.bytes_moved"),
      count("exec.messages"), count("exec.intersection_pairs"));
  if (trace_path == nullptr) return true;
  if (!run.engine->write_trace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path);
    return false;
  }
  std::printf("timeline written to %s (open in chrome://tracing)\n",
              trace_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "circuit";
  const uint32_t nodes =
      argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 4;
  const char* trace = argc > 3 ? argv[3] : nullptr;

  exec::CostModel cost = exec::CostModel::piz_daint();
  rt::Runtime rt(exec::runtime_config(nodes, 12, cost, /*real_data=*/true));
  bool ok = true;

  if (app == "stencil") {
    apps::stencil::Config cfg;
    cfg.nodes = nodes;
    cfg.tasks_per_node = 2;
    cfg.tile_x = cfg.tile_y = 12;
    cfg.steps = 3;
    ok = inspect(rt, apps::stencil::build(rt, cfg).program, trace);
  } else if (app == "circuit") {
    apps::circuit::Config cfg;
    cfg.nodes = nodes;
    cfg.pieces_per_node = 2;
    cfg.nodes_per_piece = 24;
    cfg.wires_per_piece = 64;
    cfg.steps = 3;
    ok = inspect(rt, apps::circuit::build(rt, cfg).program, trace);
  } else if (app == "pennant") {
    apps::pennant::Config cfg;
    cfg.nodes = nodes;
    cfg.pieces_per_node = 2;
    cfg.zones_x_per_piece = 6;
    cfg.zones_y = 6;
    cfg.steps = 3;
    ok = inspect(rt, apps::pennant::build(rt, cfg).program, trace);
  } else if (app == "miniaero") {
    apps::miniaero::Config cfg;
    cfg.nodes = nodes;
    cfg.pieces_per_node = 2;
    cfg.cells_x_per_piece = 4;
    cfg.cells_y = cfg.cells_z = 4;
    cfg.steps = 2;
    ok = inspect(rt, apps::miniaero::build(rt, cfg).program, trace);
  } else {
    std::fprintf(stderr,
                 "usage: %s {stencil|circuit|pennant|miniaero} [nodes] "
                 "[trace.json]\n",
                 argv[0]);
    return 2;
  }
  return ok ? 0 : 1;
}
