// Golden tests: the Figure 2 program stepped through the control
// replication pipeline must produce the structures of Figure 4.
#include <gtest/gtest.h>

#include "ir/printer.h"
#include "passes/applicability.h"
#include "passes/pipeline.h"
#include "support/metrics.h"
#include "testing/fig2.h"

namespace cr::passes {
namespace {

// The pass counter "passes.<key>" recorded in `m`, 0 when never created.
uint64_t count(const support::MetricsRegistry& m, const std::string& key) {
  return support::count_of(m.snapshot(), "passes." + key);
}

TEST(Applicability, SelectsTheTimeLoopFragment) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  std::string why;
  auto frags = find_fragments(fig.program, &why);
  ASSERT_EQ(frags.size(), 1u) << why;
  // Both the init launch and the time loop qualify.
  EXPECT_EQ(frags[0].begin, 0u);
  EXPECT_EQ(frags[0].end, 2u);
}

TEST(Applicability, SingleTaskSplitsFragments) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  ir::Program p = fig.program;
  // Insert a single task between init and the loop: each side becomes
  // its own fragment.
  ir::Stmt st;
  st.kind = ir::StmtKind::kSingleTask;
  st.task = fig.t_init;
  st.regions = {fig.a};
  p.body.insert(p.body.begin() + 1, st);
  auto frags = find_fragments(p);
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_EQ(frags[0].begin, 0u);
  EXPECT_EQ(frags[0].end, 1u);
  EXPECT_EQ(frags[1].begin, 2u);
  EXPECT_EQ(frags[1].end, 3u);
}

TEST(Applicability, RejectsAliasedWriteLaunch) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  ir::Program p = fig.program;
  p.tasks[fig.t_g].params[1].privilege = rt::Privilege::kReadWrite;
  p.body[1].body[1].args[1].privilege = rt::Privilege::kReadWrite;
  std::string why;
  EXPECT_FALSE(statement_replicable(p, p.body[1], &why));
  EXPECT_NE(why.find("aliased"), std::string::npos);
}

TEST(Pipeline, Fig4FullTransformGolden) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  ir::Program p = fig.program;
  support::MetricsRegistry m;
  PipelineOptions opt;
  opt.num_shards = 2;
  opt.metrics = &m;
  PipelineReport report = control_replicate(p, opt);
  ASSERT_TRUE(report.applied) << report.failure;

  EXPECT_EQ(ir::to_string(p),
            "program fig2\n"
            // Initialization (Fig. 4a lines 2-4): every accessed
            // partition loads from its parent region.
            "copy A -> PA {f0}\n"
            "copy B -> PB {f0}\n"
            "copy B -> QB {f0}\n"
            // Intersections (Fig. 4b line 5), hoisted to program start.
            "intersect#0 = PB x QB\n"
            // The shard task (Fig. 4d).
            "shards 2:\n"
            "  launch TInit over 4: PA[i] writes{f0}\n"
            "  for t in 0..3:\n"
            "    launch TF over 4: PB[i] reads writes{f0} PA[i] reads{f0}\n"
            // The copy (Fig. 4b line 10) with intersections and p2p sync.
            "    copy PB -> QB {f0} isect#0 sync=p2p\n"
            "    launch TG over 4: PA[i] reads writes{f0} QB[i] reads{f0}\n"
            // Finalization (Fig. 4a lines 14-15): written partitions only.
            "copy PA -> A {f0}\n"
            "copy PB -> B {f0}\n");

  EXPECT_EQ(count(m, "data-replication.init_copies"), 3u);
  EXPECT_EQ(count(m, "data-replication.finalize_copies"), 2u);
  EXPECT_EQ(count(m, "data-replication.inner_copies"), 1u);
  EXPECT_EQ(count(m, "intersection-opt.tables"), 1u);
  EXPECT_EQ(count(m, "sync-insertion.p2p_copies"), 1u);
  EXPECT_EQ(count(m, "sync-insertion.barriers"), 0u);
}

TEST(Pipeline, BarrierModeInsertsBarrierPairs) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  ir::Program p = fig.program;
  support::MetricsRegistry m;
  PipelineOptions opt;
  opt.num_shards = 2;
  opt.p2p_sync = false;
  opt.metrics = &m;
  PipelineReport report = control_replicate(p, opt);
  ASSERT_TRUE(report.applied);
  EXPECT_EQ(count(m, "sync-insertion.barriers"), 2u);
  const std::string text = ir::to_string(p);
  // Figure 4c: barrier / copy / barrier inside the time loop.
  EXPECT_NE(text.find("    barrier\n"
                      "    copy PB -> QB {f0} isect#0\n"
                      "    barrier\n"),
            std::string::npos);
}

TEST(Pipeline, NoIntersectionOptLeavesAllPairsCopies) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  ir::Program p = fig.program;
  support::MetricsRegistry m;
  PipelineOptions opt;
  opt.num_shards = 2;
  opt.intersection_opt = false;
  opt.metrics = &m;
  PipelineReport report = control_replicate(p, opt);
  ASSERT_TRUE(report.applied);
  EXPECT_EQ(count(m, "intersection-opt.tables"), 0u);
  EXPECT_EQ(ir::to_string(p).find("intersect#"), std::string::npos);
}

TEST(Pipeline, ImplicitPreparationHasNoShardsOrSync) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  ir::Program p = fig.program;
  PipelineReport report = prepare_distributed(p, PipelineOptions{});
  ASSERT_TRUE(report.applied);
  const std::string text = ir::to_string(p);
  EXPECT_EQ(text.find("shards"), std::string::npos);
  EXPECT_EQ(text.find("sync=p2p"), std::string::npos);
  EXPECT_EQ(text.find("barrier"), std::string::npos);
  EXPECT_NE(text.find("copy PB -> QB {f0} isect#0"), std::string::npos);
}

TEST(Pipeline, HierarchicalDisjointnessSuppressesPrivateCopies) {
  // Paper §4.5 / Figure 5: with a private/ghost top-level split, the
  // private partition provably needs no copies; without hierarchy
  // reasoning (flat), a copy is emitted anyway (harmless but costly).
  rt::RegionForest forest;
  auto fs = std::make_shared<rt::FieldSpace>();
  rt::FieldId f = fs->add_field("v");
  rt::RegionId b = forest.create_region(rt::IndexSpace::dense(40), fs, "B");
  rt::PartitionId pvg = rt::partition_by_color(
      forest, b, 2,
      [](uint64_t id) { return rt::ColorRun{id < 24 ? 0u : 1u, id + 1}; },
      "pvg");
  rt::RegionId all_private = forest.subregion(pvg, 0);
  rt::RegionId all_ghost = forest.subregion(pvg, 1);
  rt::PartitionId pb =
      rt::partition_equal(forest, all_private, 4, "PBpriv");
  rt::PartitionId sb = rt::partition_equal(forest, all_ghost, 4, "SB");
  rt::PartitionId qb = rt::partition_image(
      forest, all_ghost, sb,
      [](uint64_t x, std::vector<uint64_t>& out) {
        out.push_back(x);
        out.push_back(x >= 25 ? x - 1 : x);
      },
      "QB");

  auto make_program = [&] {
    ir::ProgramBuilder bld(forest, "hier");
    using P = rt::Privilege;
    ir::TaskId tw = bld.task(
        "TW",
        {{P::kReadWrite, rt::ReduceOp::kSum, {f}},
         {P::kReadWrite, rt::ReduceOp::kSum, {f}}},
        100, 1.0, nullptr);
    ir::TaskId tr = bld.task(
        "TR",
        {{P::kReadOnly, rt::ReduceOp::kSum, {f}},
         {P::kReadOnly, rt::ReduceOp::kSum, {f}}},
        100, 1.0, nullptr);
    bld.begin_for_time(2);
    bld.index_launch(tw, 4,
                     {ir::ProgramBuilder::arg(pb, P::kReadWrite, {f}),
                      ir::ProgramBuilder::arg(sb, P::kReadWrite, {f})});
    bld.index_launch(tr, 4,
                     {ir::ProgramBuilder::arg(pb, P::kReadOnly, {f}),
                      ir::ProgramBuilder::arg(qb, P::kReadOnly, {f})});
    bld.end_for_time();
    return bld.finish();
  };

  ir::Program deep = make_program();
  support::MetricsRegistry deep_m;
  PipelineOptions opt;
  opt.num_shards = 2;
  opt.metrics = &deep_m;
  PipelineReport deep_report = control_replicate(deep, opt);
  ASSERT_TRUE(deep_report.applied);
  // Only SB -> QB needed: PBpriv is provably disjoint from QB.
  EXPECT_EQ(count(deep_m, "data-replication.inner_copies"), 1u);
  EXPECT_EQ(ir::to_string(deep).find("copy PBpriv -> QB"),
            std::string::npos);

  ir::Program flat = make_program();
  support::MetricsRegistry flat_m;
  opt.hierarchical = false;
  opt.metrics = &flat_m;
  PipelineReport flat_report = control_replicate(flat, opt);
  ASSERT_TRUE(flat_report.applied);
  // Extra (mostly empty) copies.
  EXPECT_EQ(count(flat_m, "data-replication.inner_copies"), 4u);
  EXPECT_NE(ir::to_string(flat).find("copy PBpriv -> QB"),
            std::string::npos);
}

}  // namespace
}  // namespace cr::passes
