// Host-independence of the SPMD timeline for the four paper apps: a
// run's virtual timeline is a pure function of its inputs, so two runs
// of one configuration, and a run with the timeline tracer attached,
// must agree bit for bit — makespans, the full metrics snapshot and the
// race-checker verdict. The suite once compared the worker counts of
// the multi-worker backend; the single event loop keeps the property
// those comparisons pinned. The same four apps also pin how many copy
// pairs each shard walks.
#include <gtest/gtest.h>

#include <string>

#include "apps/circuit/circuit.h"
#include "apps/miniaero/miniaero.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"

namespace cr::exec {
namespace {

ir::Program build_app(rt::Runtime& rt, const std::string& app,
                      uint32_t nodes) {
  if (app == "stencil") {
    apps::stencil::Config cfg;
    cfg.nodes = nodes;
    cfg.tasks_per_node = 2;
    cfg.tile_x = 16;
    cfg.tile_y = 16;
    cfg.steps = 2;
    return apps::stencil::build(rt, cfg).program;
  }
  if (app == "circuit") {
    apps::circuit::Config cfg;
    cfg.nodes = nodes;
    cfg.pieces_per_node = 2;
    cfg.nodes_per_piece = 16;
    cfg.wires_per_piece = 32;
    cfg.steps = 2;
    return apps::circuit::build(rt, cfg).program;
  }
  if (app == "pennant") {
    apps::pennant::Config cfg;
    cfg.nodes = nodes;
    cfg.pieces_per_node = 2;
    cfg.zones_x_per_piece = 6;
    cfg.zones_y = 6;
    cfg.steps = 2;
    return apps::pennant::build(rt, cfg).program;
  }
  apps::miniaero::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 2;
  cfg.cells_x_per_piece = 4;
  cfg.cells_y = 4;
  cfg.cells_z = 4;
  cfg.steps = 2;
  return apps::miniaero::build(rt, cfg).program;
}

ExecutionResult run_app(const std::string& app, bool traced = false,
                        uint32_t nodes = 4, bool intersection_opt = true) {
  CostModel cost;
  cost.track_dependences = false;
  rt::Runtime rt(runtime_config(nodes, 4, cost, /*real_data=*/false));
  ir::Program program = build_app(rt, app, nodes);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kSpmd;
  cfg.pipeline.intersection_opt = intersection_opt;
  cfg.trace = traced;
  cfg.check = true;
  PreparedRun run = prepare(rt, std::move(program), cfg);
  return run.run();
}

void expect_bit_identical(const std::string& app) {
  const ExecutionResult ref = run_app(app);
  ASSERT_GT(ref.makespan_ns, 0u);
  ASSERT_GT(support::count_of(ref.metrics, "exec.point_tasks"), 0u);
  ASSERT_NE(ref.check, nullptr);
  EXPECT_TRUE(ref.check->ok()) << app;
  for (const bool traced : {false, true}) {
    const ExecutionResult res = run_app(app, traced);
    const std::string where = app + (traced ? " traced" : " repeat");
    EXPECT_EQ(res.makespan_ns, ref.makespan_ns) << where;
    // The full metrics snapshot — every sim./rt./exec./check. counter —
    // must match key for key, value for value.
    EXPECT_EQ(res.metrics, ref.metrics) << where;
    // Identical race-checker verdict.
    ASSERT_NE(res.check, nullptr) << where;
    EXPECT_EQ(res.check->ok(), ref.check->ok()) << where;
    EXPECT_EQ(res.check->races.size(), ref.check->races.size()) << where;
    EXPECT_EQ(res.check->stats.accesses, ref.check->stats.accesses)
        << where;
    EXPECT_EQ(res.check->stats.pairs_checked, ref.check->stats.pairs_checked)
        << where;
  }
}

TEST(ParallelEquivalence, Stencil) { expect_bit_identical("stencil"); }
TEST(ParallelEquivalence, Circuit) { expect_bit_identical("circuit"); }
TEST(ParallelEquivalence, Pennant) { expect_bit_identical("pennant"); }
TEST(ParallelEquivalence, MiniAero) { expect_bit_identical("miniaero"); }

// A shard issues only the copies whose source color it owns (paper
// §3.4), and it finds them as one slice of each pair table. So every
// pair the engine visits is issued or skipped as empty; none is passed
// over for ownership. Scanning the whole table in every shard would
// visit about num_shards times as many. Both the intersection tables
// and, with the optimization off, the all-pairs tables are sliced.
TEST(CopyIssue, ShardsVisitOnlyTheirOwnedPairs) {
  for (const std::string app : {"stencil", "circuit", "pennant", "miniaero"}) {
    for (const bool intersection_opt : {true, false}) {
      const ExecutionResult res =
          run_app(app, /*traced=*/false, /*nodes=*/8, intersection_opt);
      const std::string where =
          app + (intersection_opt ? "" : " without intersection-opt");
      auto count = [&](const char* key) {
        return support::count_of(res.metrics, key);
      };
      EXPECT_GT(count("exec.copies_issued"), 0u) << where;
      EXPECT_EQ(count("exec.copy_pairs_visited"),
                count("exec.copies_issued") + count("exec.copies_skipped"))
          << where;
    }
  }
}

}  // namespace
}  // namespace cr::exec
