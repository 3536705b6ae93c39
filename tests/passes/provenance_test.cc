// Golden provenance test: after the full control-replication pipeline,
// every compiler-inserted copy/sync operation must carry a provenance
// chain rooted at a user source statement — that is what the attribution
// rows of a traced run (support::TraceSummary::attribution) key on.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "ir/printer.h"
#include "passes/pipeline.h"
#include "rt/partition.h"
#include "rt/runtime.h"
#include "testing/fig2.h"

namespace cr::passes {
namespace {

bool inserted_op(ir::StmtKind k) {
  switch (k) {
    case ir::StmtKind::kCopy:
    case ir::StmtKind::kFill:
    case ir::StmtKind::kBarrier:
    case ir::StmtKind::kIntersect:
    case ir::StmtKind::kCollective:
      return true;
    default:
      return false;
  }
}

void check_body(const std::vector<ir::Stmt>& body, const ir::Program& p,
                size_t* checked) {
  for (const ir::Stmt& s : body) {
    if (inserted_op(s.kind)) {
      ++*checked;
      EXPECT_TRUE(s.prov.valid())
          << "inserted op without provenance: " << s.label;
      EXPECT_FALSE(s.prov.passes.empty())
          << "provenance chain names no pass: " << s.label;
      EXPECT_LT(s.prov.source, p.num_source_stmts) << s.label;
      EXPECT_FALSE(s.prov.label.empty()) << s.label;
    }
    check_body(s.body, p, checked);
  }
}

// Straight-line Figure 2 variant whose inter-shard copy needs no
// leading barrier: every access before the copy is either shard-local
// (TF's aligned PB write is the copy's own source side) or
// field-disjoint (PA carries fa, the copy moves fb), so sync insertion
// elides the leading barrier and keeps only the trailing one.
ir::Program build_elided_barrier_case(rt::RegionForest& f) {
  auto fsa = std::make_shared<rt::FieldSpace>();
  const rt::FieldId fa = fsa->add_field("va");
  auto fsb = std::make_shared<rt::FieldSpace>();
  const rt::FieldId fb = fsb->add_field("vb");
  const rt::RegionId a = f.create_region(rt::IndexSpace::dense(24), fsa, "A");
  const rt::RegionId b = f.create_region(rt::IndexSpace::dense(24), fsb, "B");
  const rt::PartitionId pa = rt::partition_equal(f, a, 4, "PA");
  const rt::PartitionId pb = rt::partition_equal(f, b, 4, "PB");
  const rt::PartitionId qb = rt::partition_image(
      f, b, pb,
      [](uint64_t x, std::vector<uint64_t>& out) {
        out.push_back((x + 3) % 24);
      },
      "QB");
  ir::ProgramBuilder bld(f, "elide");
  using P = rt::Privilege;
  const ir::TaskId t_init = bld.task(
      "TInit", {{P::kWriteDiscard, rt::ReduceOp::kSum, {fa}}}, 500, 0.5,
      nullptr);
  const ir::TaskId t_f =
      bld.task("TF",
               {{P::kReadWrite, rt::ReduceOp::kSum, {fb}},
                {P::kReadOnly, rt::ReduceOp::kSum, {fa}}},
               1000, 1.0, nullptr);
  const ir::TaskId t_g =
      bld.task("TG",
               {{P::kReadWrite, rt::ReduceOp::kSum, {fa}},
                {P::kReadOnly, rt::ReduceOp::kSum, {fb}}},
               1000, 1.0, nullptr);
  using B = ir::ProgramBuilder;
  bld.index_launch(t_init, 4, {B::arg(pa, P::kWriteDiscard, {fa})});
  bld.index_launch(t_f, 4,
                   {B::arg(pb, P::kReadWrite, {fb}),
                    B::arg(pa, P::kReadOnly, {fa})});
  bld.index_launch(t_g, 4,
                   {B::arg(pa, P::kReadWrite, {fa}),
                    B::arg(qb, P::kReadOnly, {fb})});
  return bld.finish();
}

TEST(Provenance, BuilderStampsUserStatements) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  const ir::Program& p = fig.program;
  EXPECT_GT(p.num_source_stmts, 0u);
  // Every user statement got a distinct source id, in program order.
  std::vector<bool> seen(p.num_source_stmts, false);
  std::function<void(const std::vector<ir::Stmt>&)> walk =
      [&](const std::vector<ir::Stmt>& body) {
        for (const ir::Stmt& s : body) {
          ASSERT_TRUE(s.prov.valid()) << s.label;
          ASSERT_LT(s.prov.source, p.num_source_stmts);
          EXPECT_FALSE(seen[s.prov.source]) << "duplicate source id";
          seen[s.prov.source] = true;
          EXPECT_TRUE(s.prov.passes.empty()) << "user stmt has pass chain";
          walk(s.body);
        }
      };
  walk(p.body);
}

TEST(Provenance, Fig2PipelineDerivesChains) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  ir::Program p = fig.program;
  PipelineOptions opt;
  opt.num_shards = 2;
  PipelineReport report = control_replicate(p, opt);
  ASSERT_TRUE(report.applied) << report.failure;
  size_t checked = 0;
  check_body(p.body, p, &checked);
  EXPECT_GT(checked, 0u);
}

TEST(Provenance, StencilPostPipelineOpsRootAtUserStatements) {
  rt::RuntimeConfig rc;
  rc.machine.nodes = 4;
  rc.machine.cores_per_node = 4;
  rt::Runtime rt(rc);
  apps::stencil::Config cfg;
  cfg.nodes = 4;
  apps::stencil::App app = apps::stencil::build(rt, cfg);
  ir::Program p = app.program;
  ASSERT_GT(p.num_source_stmts, 0u);

  PipelineOptions opt;
  opt.num_shards = 4;
  PipelineReport report = control_replicate(p, opt);
  ASSERT_TRUE(report.applied) << report.failure;

  size_t checked = 0;
  check_body(p.body, p, &checked);
  // The stencil pipeline inserts intersections, ghost copies and
  // init/finalize coherence copies at minimum.
  EXPECT_GE(checked, 3u);

  // The opt-in printer annotation surfaces the chains.
  ir::PrintOptions popt;
  popt.show_provenance = true;
  const std::string text = ir::to_string(p, popt);
  EXPECT_NE(text.find("from#"), std::string::npos);
}

TEST(Provenance, ElidedLeadingBarrierGolden) {
  rt::RegionForest forest;
  ir::Program p = build_elided_barrier_case(forest);
  support::MetricsRegistry m;
  PipelineOptions opt;
  opt.num_shards = 2;
  opt.p2p_sync = false;
  opt.metrics = &m;
  PipelineReport report = control_replicate(p, opt);
  ASSERT_TRUE(report.applied) << report.failure;
  // Only the trailing barrier survives; the leading one is elided.
  EXPECT_EQ(support::count_of(m.snapshot(), "passes.sync-insertion.barriers"),
            1u);
  const std::string text = ir::to_string(p);
  EXPECT_NE(text.find("  copy PB -> QB {f0} isect#0\n"
                      "  barrier\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("barrier\n  copy"), std::string::npos) << text;
  // The surviving barrier (and every other inserted op) still roots at
  // a user source statement.
  size_t checked = 0;
  check_body(p.body, p, &checked);
  EXPECT_GT(checked, 0u);
}

TEST(Provenance, ElidedBarrierRunLeavesNoDanglingAttributionRoots) {
  // The attribution report keys runtime copy/sync spans by provenance
  // root. When the leading barrier is elided, the copy run executes
  // with a trailing barrier only — every attributed row must still
  // resolve to a source statement that exists in the final IR (no
  // dangling roots from the elided barrier).
  exec::CostModel cost;
  cost.track_dependences = false;
  rt::Runtime rt(exec::runtime_config(2, 4, cost, /*real_data=*/false));
  ir::Program p = build_elided_barrier_case(rt.forest());
  PipelineOptions opt;
  opt.p2p_sync = false;
  exec::ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = exec::ExecMode::kSpmd;
  ecfg.pipeline = opt;
  ecfg.trace = true;
  exec::PreparedRun run = exec::prepare(rt, p, ecfg);
  ASSERT_EQ(support::count_of(rt.metrics().snapshot(),
                              "passes.sync-insertion.barriers"),
            1u);
  run.run();

  std::set<uint32_t> roots;
  std::function<void(const std::vector<ir::Stmt>&)> walk =
      [&](const std::vector<ir::Stmt>& body) {
        for (const ir::Stmt& s : body) {
          if (s.prov.valid()) roots.insert(s.prov.source);
          walk(s.body);
        }
      };
  walk(run.program->body);

  const std::vector<support::TraceAttributionRow> rows =
      run.engine->trace_summary().attribution;
  ASSERT_FALSE(rows.empty());  // the copy and its barrier were attributed
  for (const auto& row : rows) {
    EXPECT_LT(row.source, run.program->num_source_stmts) << row.label;
    EXPECT_FALSE(row.label.empty()) << row.source;
    EXPECT_TRUE(roots.count(row.source) > 0)
        << "dangling attribution root: source " << row.source << " ("
        << row.label << ")";
  }
}

}  // namespace
}  // namespace cr::passes
