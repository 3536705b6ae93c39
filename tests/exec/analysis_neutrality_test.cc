// Virtual-time neutrality of the analysis fast path: tracing and the
// race checker change how fast the host computes the schedule — never
// the schedule itself. Every combination of {traced, untraced} x
// {checked, unchecked} must produce bit-identical simulated makespans
// and output data. (The dependence tracker and may_alias are checked
// against exhaustive references directly, in DependenceIndexEquivalence
// and RegionTreeMemoization.)
#include <gtest/gtest.h>

#include "exec/implicit_exec.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

struct Observed {
  sim::Time makespan = 0;
  uint64_t bytes = 0;
  uint64_t messages = 0;
  uint64_t dependences = 0;
  std::vector<double> data;
};

Observed run_fig2(bool spmd, bool traced, bool check = false) {
  CostModel cost;
  cost.track_dependences = true;
  rt::Runtime rt(runtime_config(4, 4, cost, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 48, 8, 3);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit;
  cfg.trace = traced;
  cfg.check = check;
  PreparedRun run = prepare(rt, fig.program, cfg);
  ExecutionResult res = run.run();
  if (check) {
    EXPECT_NE(res.check, nullptr);
    EXPECT_TRUE(res.check->ok()) << res.check->to_text();
  }
  Observed out;
  out.makespan = res.makespan_ns;
  out.bytes = support::count_of(res.metrics, "exec.bytes_moved");
  out.messages = support::count_of(res.metrics, "exec.messages");
  out.dependences = support::count_of(res.metrics, "rt.dep.dependences");
  for (uint64_t p = 0; p < 48; ++p) {
    out.data.push_back(run.engine->read_root_f64(fig.a, fig.fa, p));
    out.data.push_back(run.engine->read_root_f64(fig.b, fig.fb, p));
  }
  return out;
}

TEST(AnalysisNeutrality, ImplicitInvariantAcrossTracingAndIndexing) {
  const Observed ref = run_fig2(/*spmd=*/false, /*traced=*/false);
  EXPECT_GT(ref.dependences, 0u);  // the analysis actually ran
  const Observed got = run_fig2(/*spmd=*/false, /*traced=*/true);
  EXPECT_EQ(got.makespan, ref.makespan);
  EXPECT_EQ(got.bytes, ref.bytes);
  EXPECT_EQ(got.messages, ref.messages);
  EXPECT_EQ(got.data, ref.data);
  // Same schedule implies the same dependences were discovered.
  EXPECT_EQ(got.dependences, ref.dependences);
}

// The race checker records every instance access plus the HB event
// graph — all host-side bookkeeping. The virtual timeline with the
// checker on, traced or not, must be bit-identical to the unchecked,
// untraced reference.
TEST(AnalysisNeutrality, CheckerInvariantImplicitAndSpmd) {
  for (const bool spmd : {false, true}) {
    const Observed ref = run_fig2(spmd, /*traced=*/false);
    for (const bool traced : {false, true}) {
      const Observed got = run_fig2(spmd, traced, /*check=*/true);
      EXPECT_EQ(got.makespan, ref.makespan)
          << "spmd=" << spmd << " traced=" << traced;
      EXPECT_EQ(got.bytes, ref.bytes);
      EXPECT_EQ(got.messages, ref.messages);
      EXPECT_EQ(got.data, ref.data);
      EXPECT_EQ(got.dependences, ref.dependences);
    }
  }
}

TEST(AnalysisNeutrality, SpmdInvariantAcrossTracingAndIndexing) {
  // SPMD execution exercises the intersections and the copy-pair memo;
  // tracing must be equally irrelevant to its timeline.
  const Observed ref = run_fig2(/*spmd=*/true, /*traced=*/false);
  const Observed got = run_fig2(/*spmd=*/true, /*traced=*/true);
  EXPECT_EQ(got.makespan, ref.makespan);
  EXPECT_EQ(got.bytes, ref.bytes);
  EXPECT_EQ(got.messages, ref.messages);
  EXPECT_EQ(got.data, ref.data);
}

}  // namespace
}  // namespace cr::exec
