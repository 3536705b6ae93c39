// Metrics/provenance observability of the engine: the registry snapshot
// is deterministic across identical runs, covers every subsystem, never
// includes host wall-clock quantities, and the traced run's attribution
// rows name the user statement behind the SPMD ghost exchange.
#include <gtest/gtest.h>

#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

ExecutionResult run_fig2(bool spmd, std::map<std::string, double>* snap,
                         bool traced = false, bool p2p_sync = true) {
  CostModel cost;
  cost.track_dependences = true;
  rt::Runtime rt(runtime_config(4, 4, cost, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 48, 8, 3);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit;
  cfg.pipeline.p2p_sync = p2p_sync;
  cfg.trace = traced;
  PreparedRun run = prepare(rt, fig.program, cfg);
  ExecutionResult res = run.run();
  if (snap != nullptr) *snap = rt.metrics().snapshot();
  return res;
}

TEST(Metrics, SnapshotDeterministicAcrossIdenticalRuns) {
  std::map<std::string, double> a, b;
  const ExecutionResult ra = run_fig2(/*spmd=*/true, &a);
  const ExecutionResult rb = run_fig2(/*spmd=*/true, &b);
  EXPECT_EQ(ra.makespan_ns, rb.makespan_ns);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The result carries the same snapshot.
  EXPECT_EQ(ra.metrics, a);
}

TEST(Metrics, SnapshotCoversEverySubsystem) {
  std::map<std::string, double> snap;
  const ExecutionResult res = run_fig2(/*spmd=*/true, &snap);
  // Executor rollups.
  EXPECT_EQ(snap.at("exec.makespan_ns"),
            static_cast<double>(res.makespan_ns));
  EXPECT_GT(snap.at("exec.point_tasks"), 0.0);
  EXPECT_GT(snap.at("exec.copies_issued"), 0.0);
  // Simulator occupancy.
  EXPECT_GT(snap.at("sim.events_processed"), 0.0);
  EXPECT_GT(snap.at("sim.queue.max_depth"), 0.0);
  EXPECT_GT(snap.at("sim.proc.busy_ns.count"), 0.0);
  // Runtime analysis structures (the dependence counters are exported
  // even when SPMD mode leaves them at zero).
  EXPECT_EQ(snap.count("rt.dep.pairs_tested"), 1u);
  EXPECT_GT(snap.at("exec.intersection_pairs"), 0.0);
  // Per-pass IR size deltas from the pipeline.
  EXPECT_GT(snap.at("passes.data-replication.stmts_in"), 0.0);
  EXPECT_GE(snap.at("passes.sync-insertion.stmts_out"),
            snap.at("passes.sync-insertion.stmts_in"));
  // No host wall-clock quantity may leak into the snapshot (it must be
  // bit-stable across machines for committed baselines).
  for (const auto& [key, value] : snap) {
    EXPECT_EQ(key.find("host"), std::string::npos) << key;
    EXPECT_EQ(key.find("wall"), std::string::npos) << key;
  }
}

TEST(Metrics, BarrierSyncRunRecordsGenerationsAndArrivals) {
  // Fig2's default pipeline uses point-to-point sync (no barriers); with
  // p2p off, sync-insertion emits phase barriers and the runtime counts
  // one arrival per participating shard per generation.
  std::map<std::string, double> snap;
  run_fig2(/*spmd=*/true, &snap, /*traced=*/false, /*p2p_sync=*/false);
  EXPECT_GT(snap.at("rt.barrier.generations"), 0.0);
  EXPECT_GT(snap.at("rt.barrier.arrivals"), snap.at("rt.barrier.generations"));
}

TEST(Metrics, ImplicitModeRecordsDependenceAnalysisWork) {
  // The implicit executor's window-based dependence analysis drives the
  // dependence counters that never fire under compiled SPMD.
  std::map<std::string, double> snap;
  run_fig2(/*spmd=*/false, &snap);
  EXPECT_GT(snap.at("rt.dep.pairs_scanned"), 0.0);
  EXPECT_GT(snap.at("rt.dep.dependences"), 0.0);
  EXPECT_GT(snap.at("rt.dep.pairs_tested"), 0.0);
  EXPECT_LE(snap.at("rt.dep.pairs_tested"), snap.at("rt.dep.pairs_scanned"));
}

TEST(Metrics, TracingAndAttributionAreMakespanNeutral) {
  std::map<std::string, double> plain, traced;
  const ExecutionResult ref = run_fig2(/*spmd=*/true, &plain);
  const ExecutionResult got =
      run_fig2(/*spmd=*/true, &traced, /*traced=*/true);
  EXPECT_EQ(got.makespan_ns, ref.makespan_ns);
  // The registry itself is identical too: attribution lives in the
  // tracer, not in the metrics.
  EXPECT_EQ(plain, traced);
}

TEST(Metrics, StencilAttributionNamesTheGhostExchange) {
  CostModel cost;
  rt::Runtime rt(runtime_config(4, 4, cost, /*real_data=*/false));
  apps::stencil::Config cfg;
  cfg.nodes = 4;
  cfg.tasks_per_node = 2;
  cfg.tile_x = 16;
  cfg.tile_y = 16;
  cfg.steps = 4;
  apps::stencil::App app = apps::stencil::build(rt, cfg);

  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = ExecMode::kSpmd;
  ecfg.trace = true;
  PreparedRun run = prepare(rt, app.program, ecfg);
  const ExecutionResult res = run.run();
  EXPECT_GT(support::count_of(res.metrics, "exec.copies_issued"), 0u);

  const support::TraceSummary summary = run.engine->trace_summary();
  const std::vector<support::TraceAttributionRow>& rows = summary.attribution;
  ASSERT_FALSE(rows.empty());
  // The dominant copy/sync contributor is the boundary increment — the
  // statement whose writes force the ghost exchange every iteration.
  const support::TraceAttributionRow& top = rows[0];
  EXPECT_EQ(top.label, "increment");
  EXPECT_GT(top.total_ns(), 0.0);
  EXPECT_GT(top.spans, 0u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(top.total_ns(), rows[i].total_ns());
  }
  EXPECT_NE(summary.to_text().find("increment"), std::string::npos);
}

}  // namespace
}  // namespace cr::exec
