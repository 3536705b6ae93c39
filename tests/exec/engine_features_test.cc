// Tests for the execution-engine features beyond plain interpretation:
// bounded run-ahead windows, timeline tracing, noise injection, and the
// quiescence check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

sim::Time run_fig2(CostModel cost, bool spmd, uint32_t nodes = 4) {
  cost.track_dependences = false;
  rt::Runtime rt(runtime_config(nodes, 4, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 64 * nodes, 4 * nodes, 6);
  for (auto& t : fig.program.tasks) {
    t.kernel = nullptr;
    t.cost_base_ns = 2e6;  // 2 ms grain: durations dominate the timeline
  }
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  return run.run().makespan_ns;
}

TEST(RunAheadWindow, BoundedPipelineIsSlowerThanUnbounded) {
  CostModel unlimited;
  CostModel tight;
  tight.run_ahead_window = 2;
  // In implicit mode at several nodes the master normally hides its
  // issue latency by running ahead; a 2-op window forces it to wait.
  const sim::Time t_free = run_fig2(unlimited, /*spmd=*/false, 8);
  const sim::Time t_tight = run_fig2(tight, /*spmd=*/false, 8);
  EXPECT_GT(t_tight, t_free);
}

TEST(RunAheadWindow, LargeWindowMatchesUnlimited) {
  CostModel unlimited;
  CostModel wide;
  wide.run_ahead_window = 1u << 20;
  EXPECT_EQ(run_fig2(unlimited, false), run_fig2(wide, false));
}

TEST(RunAheadWindow, CorrectnessPreservedUnderTinyWindow) {
  CostModel tight;
  tight.run_ahead_window = 1;
  rt::Runtime rt(runtime_config(4, 4, tight, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 48, 8, 3);
  SequentialResult oracle = run_sequential(fig.program);
  ExecConfig ecfg;
  ecfg.cost = tight;
  ecfg.mode = ExecMode::kSpmd;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  run.run();
  for (uint64_t p = 0; p < 48; ++p) {
    ASSERT_EQ(run.engine->read_root_f64(fig.a, fig.fa, p),
              oracle.read_f64(fig.a, fig.fa, p));
  }
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

// Engine reuse on one runtime: the dependence tracker is a Runtime
// member, so without the per-run reset a second engine's op ids would
// collide with the first run's users and the counters would accumulate.
TEST(EngineReuse, StartsAnalysisClean) {
  CostModel cost;
  cost.track_dependences = true;
  rt::Runtime rt(runtime_config(4, 4, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 48, 8, 4);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kImplicit;
  PreparedRun first = prepare(rt, fig.program, cfg);
  const ExecutionResult r1 = first.run();
  PreparedRun second = prepare(rt, fig.program, cfg);
  const ExecutionResult r2 = second.run();
  // The analysis and the copy/network tallies are per-run: nothing from
  // run 1 may leak into run 2's counters.
  for (const char* key :
       {"rt.dep.pairs_scanned", "rt.dep.pairs_tested", "rt.dep.dependences"}) {
    EXPECT_EQ(r1.metrics.at(key), r2.metrics.at(key)) << key;
  }
  EXPECT_EQ(r1.copies_issued, r2.copies_issued);
  EXPECT_EQ(r1.bytes_moved, r2.bytes_moved);
  EXPECT_EQ(r1.messages, r2.messages);
  // The makespan is this run's elapsed virtual time, not the absolute
  // simulator end time. Run 2 starts mid-world (its launch-time events
  // clamp to "now" instead of staggering from t=0), so it may differ by
  // a launch offset — but never by anything near a whole first run,
  // which is what the absolute end time would report.
  EXPECT_GT(r2.makespan_ns, 0u);
  EXPECT_LT(r2.makespan_ns, r1.makespan_ns + r1.makespan_ns / 2);
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
