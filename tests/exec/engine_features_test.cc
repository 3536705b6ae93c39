// Tests for the execution-engine features beyond plain interpretation:
// timeline tracing, noise injection, one run per runtime and engine, and
// pair tables built once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "exec/implicit_exec.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

sim::Time run_fig2(CostModel cost, bool spmd, uint32_t nodes = 4) {
  cost.track_dependences = false;
  rt::Runtime rt(runtime_config(nodes, 4, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 64 * nodes, 4 * nodes, 6);
  // 2 ms grain: durations dominate the timeline.
  for (auto& t : fig.program.tasks) t.cost_base_ns = 2e6;
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  return run.run().makespan_ns;
}

TEST(Noise, HeavyTailSlowsExecutionDeterministically) {
  CostModel noisy;
  noisy.task_slow_prob = 0.1;
  noisy.task_slow_frac = 1.0;
  const sim::Time clean = run_fig2(CostModel{}, true);
  const sim::Time t1 = run_fig2(noisy, true);
  const sim::Time t2 = run_fig2(noisy, true);
  EXPECT_GT(t1, clean);
  EXPECT_EQ(t1, t2);  // deterministic replay
}

TEST(Trace, WritesChromeTraceJson) {
  CostModel cost;
  rt::Runtime rt(runtime_config(2, 4, cost, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 24, 4, 2);
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = ExecMode::kSpmd;
  ecfg.trace = true;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  run.run();
  const std::string path = ::testing::TempDir() + "/cr_trace.json";
  ASSERT_TRUE(run.engine->write_trace(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("TF["), std::string::npos);
  EXPECT_NE(text.find("TG["), std::string::npos);
  EXPECT_NE(text.find("\"pid\":1"), std::string::npos);  // node 1 used
  std::remove(path.c_str());
}

TEST(Trace, DisabledByDefaultProducesEmptyTimeline) {
  CostModel cost;
  rt::Runtime rt(runtime_config(1, 2, cost, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 12, 2, 1);
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = ExecMode::kSpmd;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  run.run();
  const std::string path = ::testing::TempDir() + "/cr_trace_empty.json";
  ASSERT_TRUE(run.engine->write_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "[\n\n]\n");
  std::remove(path.c_str());
}

TEST(Trace, UnwritablePathReportsFailure) {
  // Traced or not, a trace file that cannot be written is reported to
  // the caller instead of aborting the process.
  for (const bool traced : {false, true}) {
    CostModel cost;
    rt::Runtime rt(runtime_config(1, 2, cost, /*real_data=*/true));
    testing::Fig2 fig(rt.forest(), 12, 2, 1);
    ExecConfig ecfg;
    ecfg.cost = cost;
    ecfg.mode = ExecMode::kSpmd;
    ecfg.trace = traced;
    PreparedRun run = prepare(rt, fig.program, ecfg);
    run.run();
    EXPECT_FALSE(run.engine->write_trace("/nonexistent-dir/cr_trace.json"))
        << (traced ? "traced" : "untraced");
  }
}

// A Runtime hosts one run: its clock, dependence tracker and copy and
// network totals are that run's. A second engine's run() on a used
// runtime stops at entry with a message that says what to do.
TEST(EngineReuse, SecondRunOnOneRuntimeDies) {
  CostModel cost;
  rt::Runtime rt(runtime_config(2, 2, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 24, 4, 2);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kImplicit;
  PreparedRun first = prepare(rt, fig.program, cfg);
  first.run();
  PreparedRun second = prepare(rt, fig.program, cfg);
  EXPECT_DEATH(second.run(), "construct a new Runtime per run");
}

// run() is one-shot: a second call on the same engine stops at entry
// with a message that says what to do, not deep in the simulator.
TEST(EngineReuse, SecondRunOnOneEngineDies) {
  CostModel cost;
  rt::Runtime rt(runtime_config(2, 2, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 24, 4, 2);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kImplicit;
  cfg.check = true;
  PreparedRun run = prepare(rt, fig.program, cfg);
  run.run();
  EXPECT_DEATH(run.run(), "construct a new Engine per run");
}

// The access log and in-flight copy requests point into an
// intersection's pair table, so executing one intersection twice (here
// a duplicated statement) must stop instead of rebuilding the table.
TEST(PairTables, RebuiltIntersectionTableDies) {
  CostModel cost;
  rt::Runtime rt(runtime_config(2, 2, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 24, 4, 2);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kSpmd;
  PreparedRun run = prepare(rt, fig.program, cfg);
  std::vector<ir::Stmt>& body = run.program->body;
  const auto isect =
      std::find_if(body.begin(), body.end(), [](const ir::Stmt& s) {
        return s.kind == ir::StmtKind::kIntersect;
      });
  ASSERT_NE(isect, body.end());
  const ir::Stmt again = *isect;
  body.insert(isect, again);
  EXPECT_DEATH(run.run(), "intersection table built twice");
}

}  // namespace
}  // namespace cr::exec
