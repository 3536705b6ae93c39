// Profiling-subsystem tests at the engine level: tracing must never
// perturb virtual time, and the aggregated breakdown must account for
// all machine time.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "exec/implicit_exec.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

struct TracedRun {
  sim::Time makespan = 0;
  support::TraceSummary summary;
};

sim::Time run_fig2(bool spmd, bool traced, uint32_t nodes,
                   support::TraceSummary* summary = nullptr) {
  CostModel cost;
  cost.track_dependences = false;
  rt::Runtime rt(runtime_config(nodes, 4, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 64 * nodes, 4 * nodes, 4);
  for (auto& t : fig.program.tasks) t.cost_base_ns = 2e6;
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit;
  ecfg.trace = traced;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  const sim::Time makespan = run.run().makespan_ns;
  if (traced && summary != nullptr) {
    *summary = run.engine->trace_summary();
  }
  return makespan;
}

TEST(TraceProfile, TracingDoesNotPerturbVirtualTime) {
  for (const bool spmd : {false, true}) {
    const sim::Time off = run_fig2(spmd, /*traced=*/false, 4);
    const sim::Time on = run_fig2(spmd, /*traced=*/true, 4);
    EXPECT_EQ(on, off) << (spmd ? "spmd" : "implicit");
  }
}

TEST(TraceProfile, BreakdownAccountsForAllMachineTime) {
  support::TraceSummary s;
  const sim::Time makespan = run_fig2(true, true, 4, &s);
  const support::TraceBreakdown& b = s.breakdown;
  EXPECT_EQ(b.makespan, makespan);
  EXPECT_GT(b.tracks, 0u);
  const double sum = b.compute_ns + b.copy_ns + b.sync_ns + b.idle_ns;
  ASSERT_GT(b.total_ns, 0.0);
  EXPECT_NEAR(sum, b.total_ns, 0.01 * b.total_ns);  // within 1% (exact)
  EXPECT_GT(b.compute_ns, 0.0);  // point tasks ran
  EXPECT_GT(b.sync_ns, 0.0);     // control-plane issue charges
  const double fsum =
      b.compute_frac() + b.copy_frac() + b.sync_frac() + b.idle_frac();
  EXPECT_NEAR(fsum, 1.0, 0.01);
}

TEST(TraceProfile, CriticalPathIsDerived) {
  support::TraceSummary s;
  run_fig2(true, true, 4, &s);
  EXPECT_GT(s.cp_spans, 0u);
  EXPECT_GT(s.cp_compute_ns + s.cp_copy_ns + s.cp_sync_ns + s.cp_wait_ns,
            0.0);
  EXPECT_FALSE(s.cp_top.empty());
  const std::string text = s.to_text();
  EXPECT_NE(text.find("critical path"), std::string::npos);
}

TEST(TraceProfile, ChromeJsonNamesNodesAndTracks) {
  CostModel cost;
  cost.track_dependences = false;
  rt::Runtime rt(runtime_config(2, 4, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 32, 8, 2);
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = ExecMode::kSpmd;
  ecfg.trace = true;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  run.run();
  const std::string path = ::testing::TempDir() + "/cr_profile.json";
  ASSERT_TRUE(run.engine->write_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("node 0"), std::string::npos);
  EXPECT_NE(text.find("shard 1 (control)"), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"compute\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"sync\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cr::exec
