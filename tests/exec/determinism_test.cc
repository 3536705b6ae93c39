// Whole-execution determinism: the simulator breaks ties by insertion
// order and every random stream is seeded, so a configuration replays
// bit-for-bit — timelines, traffic, and data.
#include <gtest/gtest.h>

#include "apps/circuit/circuit.h"
#include "exec/implicit_exec.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

struct ReplayResult {
  sim::Time makespan;
  uint64_t bytes;
  uint64_t messages;
  std::vector<double> data;
};

ReplayResult run_once(bool spmd) {
  CostModel cost;
  rt::Runtime rt(runtime_config(4, 4, cost, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 48, 8, 3);
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  ExecutionResult res = run.run();
  ReplayResult out;
  out.makespan = res.makespan_ns;
  out.bytes = support::count_of(res.metrics, "exec.bytes_moved");
  out.messages = support::count_of(res.metrics, "exec.messages");
  for (uint64_t p = 0; p < 48; ++p) {
    out.data.push_back(run.engine->read_root_f64(fig.a, fig.fa, p));
    out.data.push_back(run.engine->read_root_f64(fig.b, fig.fb, p));
  }
  return out;
}

TEST(Determinism, SpmdReplaysBitForBit) {
  ReplayResult a = run_once(true);
  ReplayResult b = run_once(true);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.data, b.data);
}

TEST(Determinism, ImplicitReplaysBitForBit) {
  ReplayResult a = run_once(false);
  ReplayResult b = run_once(false);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.data, b.data);
}

TEST(Determinism, CircuitGraphAndExecutionReplay) {
  auto once = [] {
    CostModel cost;
    rt::Runtime rt(runtime_config(3, 4, cost, true));
    apps::circuit::Config cfg;
    cfg.nodes = 3;
    cfg.pieces_per_node = 2;
    cfg.nodes_per_piece = 20;
    cfg.wires_per_piece = 50;
    cfg.steps = 2;
    auto app = apps::circuit::build(rt, cfg);
    ExecConfig ecfg;
    ecfg.cost = cost;
    ecfg.mode = ExecMode::kSpmd;
    PreparedRun run = prepare(rt, app.program, ecfg);
    ExecutionResult res = run.run();
    std::vector<double> v;
    for (uint64_t n = 0; n < app.graph->num_nodes(); ++n) {
      v.push_back(run.engine->read_root_f64(app.rn, app.f_voltage, n));
    }
    return std::make_pair(res.makespan_ns, v);
  };
  auto a = once();
  auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace cr::exec
