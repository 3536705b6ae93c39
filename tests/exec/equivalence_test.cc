// End-to-end correctness: for the Figure 2 program, implicit execution
// and control-replicated SPMD execution must produce exactly the data the
// sequential oracle produces, across machine shapes and pipeline options.
#include <gtest/gtest.h>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

struct Shape {
  uint32_t nodes;
  uint64_t elements;
  uint64_t colors;
  uint64_t steps;
};

void expect_matches_oracle(const Shape& shape,
                           passes::PipelineOptions options,
                           bool spmd) {
  rt::Runtime rt(runtime_config(shape.nodes, 4, CostModel{},
                                /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), shape.elements, shape.colors, shape.steps);
  SequentialResult oracle = run_sequential(fig.program);

  ExecConfig ecfg;
  ecfg.mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit;
  ecfg.pipeline = options;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  ExecutionResult res = run.run();
  EXPECT_GT(res.makespan_ns, 0u);
  EXPECT_GT(support::count_of(res.metrics, "exec.point_tasks"), 0u);

  for (uint64_t p = 0; p < shape.elements; ++p) {
    ASSERT_EQ(run.engine->read_root_f64(fig.a, fig.fa, p),
              oracle.read_f64(fig.a, fig.fa, p))
        << "A[" << p << "] diverged";
    ASSERT_EQ(run.engine->read_root_f64(fig.b, fig.fb, p),
              oracle.read_f64(fig.b, fig.fb, p))
        << "B[" << p << "] diverged";
  }
}

TEST(Equivalence, ImplicitMatchesOracle) {
  expect_matches_oracle({4, 48, 8, 3}, {}, /*spmd=*/false);
}

TEST(Equivalence, SpmdMatchesOracle) {
  expect_matches_oracle({4, 48, 8, 3}, {}, /*spmd=*/true);
}

TEST(Equivalence, SpmdSingleNode) {
  expect_matches_oracle({1, 24, 4, 2}, {}, /*spmd=*/true);
}

TEST(Equivalence, SpmdMoreShardsThanColorsWorks) {
  // 8 nodes, 8 shards, 6 colors: some shards own nothing.
  expect_matches_oracle({8, 36, 6, 3}, {}, /*spmd=*/true);
}

TEST(Equivalence, SpmdBarrierSync) {
  passes::PipelineOptions opt;
  opt.p2p_sync = false;
  expect_matches_oracle({4, 48, 8, 3}, opt, /*spmd=*/true);
}

TEST(Equivalence, SpmdNoIntersectionOpt) {
  passes::PipelineOptions opt;
  opt.intersection_opt = false;
  expect_matches_oracle({4, 48, 8, 3}, opt, /*spmd=*/true);
}

TEST(Equivalence, SpmdNoCopyPlacement) {
  passes::PipelineOptions opt;
  opt.copy_placement = false;
  expect_matches_oracle({4, 48, 8, 3}, opt, /*spmd=*/true);
}

TEST(Equivalence, SpmdFlatAliasing) {
  passes::PipelineOptions opt;
  opt.hierarchical = false;
  expect_matches_oracle({4, 48, 8, 3}, opt, /*spmd=*/true);
}

TEST(Equivalence, SpmdManyStepsManyShards) {
  expect_matches_oracle({16, 160, 16, 6}, {}, /*spmd=*/true);
}

// The headline property: CR exists to make SPMD *faster* than a single
// control thread at scale while staying equivalent. Check the scaling
// direction on a virtual-only run large enough for the control
// bottleneck to bite.
TEST(Scaling, SpmdBeatsImplicitAtScale) {
  const uint32_t nodes = 64;
  auto run_mode = [&](bool spmd) {
    CostModel cost;
    cost.track_dependences = false;
    rt::Runtime rt(runtime_config(nodes, 4, cost, /*real_data=*/false));
    testing::Fig2 fig(rt.forest(), 64 * 64, nodes, 10);
    ExecConfig ecfg;
    ecfg.cost = cost;
    ecfg.mode = spmd ? ExecMode::kSpmd : ExecMode::kImplicit;
    PreparedRun run = prepare(rt, fig.program, ecfg);
    return run.run().makespan_ns;
  };
  const sim::Time implicit_ns = run_mode(false);
  const sim::Time spmd_ns = run_mode(true);
  EXPECT_LT(spmd_ns * 2, implicit_ns)
      << "control replication should win clearly at 64 nodes";
}

TEST(Stats, SpmdSkipsEmptyPairsWithIntersections) {
  rt::Runtime rt(runtime_config(4, 4, CostModel{}, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 64, 8, 2);
  ExecConfig ecfg;
  ecfg.mode = ExecMode::kSpmd;
  PreparedRun run = prepare(rt, fig.program, ecfg);
  ExecutionResult res = run.run();
  // The halo image only touches neighbor blocks: far fewer than 8x8
  // pairs per iteration move data.
  const uint64_t pairs =
      support::count_of(res.metrics, "exec.intersection_pairs");
  EXPECT_GT(pairs, 0u);
  EXPECT_LE(pairs, 3 * 8u);
}


// Control replication is a *local* transformation (paper §1): a program
// with two separate parallel phases split by a single task gets two
// independent shard launches, with data flowing between them through the
// parent regions — and still matches the oracle exactly.
TEST(MultiFragment, TwoLoopsSplitBySingleTaskMatchOracle) {
  rt::Runtime rt(runtime_config(4, 4, CostModel{}, /*real_data=*/true));
  testing::Fig2 fig(rt.forest(), 48, 8, 2);

  // Append: a single task on root A (not replicable), then another
  // parallel phase.
  ir::Program p = fig.program;
  ir::Stmt single;
  single.kind = ir::StmtKind::kSingleTask;
  single.task = fig.t_init;  // WD on A: rewrites A's master
  single.regions = {fig.a};
  single.label = "bump";
  p.body.push_back(single);
  ir::Stmt loop2;
  loop2.kind = ir::StmtKind::kForTime;
  loop2.trip_count = 2;
  {
    ir::Stmt tf;
    tf.kind = ir::StmtKind::kIndexLaunch;
    tf.task = fig.t_f;
    tf.launch_colors = 8;
    tf.args = p.body[1].body[0].args;  // PB rw, PA ro
    loop2.body.push_back(tf);
    ir::Stmt tg;
    tg.kind = ir::StmtKind::kIndexLaunch;
    tg.task = fig.t_g;
    tg.launch_colors = 8;
    tg.args = p.body[1].body[1].args;  // PA rw, QB ro
    loop2.body.push_back(tg);
  }
  p.body.push_back(loop2);

  SequentialResult oracle = run_sequential(p);
  ExecConfig ecfg;
  ecfg.mode = ExecMode::kSpmd;
  PreparedRun run = prepare(rt, p, ecfg);
  ASSERT_TRUE(run.report.applied) << run.report.failure;

  // Two shard bodies in the transformed program.
  size_t shard_bodies = 0;
  for (const ir::Stmt& s : run.program->body) {
    if (s.kind == ir::StmtKind::kShardBody) ++shard_bodies;
  }
  EXPECT_EQ(shard_bodies, 2u);

  run.run();
  for (uint64_t pt = 0; pt < 48; ++pt) {
    ASSERT_EQ(run.engine->read_root_f64(fig.a, fig.fa, pt),
              oracle.read_f64(fig.a, fig.fa, pt))
        << "A[" << pt << "]";
    ASSERT_EQ(run.engine->read_root_f64(fig.b, fig.fb, pt),
              oracle.read_f64(fig.b, fig.fb, pt))
        << "B[" << pt << "]";
  }
}

// Scalars cross shard-body boundaries (paper §4.4: scalars are
// replicated): a shard launch hands every shard the main task's latest
// scalar versions, and the main task continues from shard 0's. A(32
// points, 8 colors) is initialized, s sums A over a 2-iteration loop,
// then a single task adds s to A. With `tail`, the main task then
// computes s = 2s + 1, adds s to A again, and a second fragment adds s
// to every tile.
struct ScalarProgram {
  std::shared_ptr<rt::FieldSpace> fs;
  rt::FieldId fa;
  rt::RegionId a;
  ir::ScalarId s;
  ir::Program program;

  ScalarProgram(rt::RegionForest& f, bool tail) {
    using P = rt::Privilege;
    using B = ir::ProgramBuilder;
    fs = std::make_shared<rt::FieldSpace>();
    fa = fs->add_field("va");
    a = f.create_region(rt::IndexSpace::dense(32), fs, "A");
    const rt::PartitionId pa = rt::partition_equal(f, a, 8, "PA");
    ir::ProgramBuilder b(f, "scalars");
    s = b.scalar("s", 0.0);
    const ir::ScalarId sv = s;
    auto add_s = [sv](ir::TaskContext& ctx) {
      ctx.domain().points().for_each_point([&](uint64_t p) {
        ctx.write_f64(0, 0, p, ctx.read_f64(0, 0, p) + ctx.scalar(sv));
      });
    };
    const ir::TaskId t_init = b.task(
        "TInit", {{P::kWriteDiscard, rt::ReduceOp::kSum, {fa}}}, 500, 0.5,
        [](ir::TaskContext& ctx) {
          ctx.domain().points().for_each_point([&](uint64_t p) {
            ctx.write_f64(0, 0, p, static_cast<double>(p % 5) + 1.0);
          });
        });
    const ir::TaskId t_sum = b.task(
        "TSum", {{P::kReadOnly, rt::ReduceOp::kSum, {fa}}}, 500, 0.5,
        [](ir::TaskContext& ctx) {
          double acc = 0;
          ctx.domain().points().for_each_point(
              [&](uint64_t p) { acc += ctx.read_f64(0, 0, p); });
          ctx.reduce_scalar(acc);
        });
    const ir::TaskId t_add = b.task(
        "TAdd", {{P::kReadWrite, rt::ReduceOp::kSum, {fa}}}, 500, 0.5, add_s);

    b.index_launch(t_init, 8, {B::arg(pa, P::kWriteDiscard, {fa})});
    b.begin_for_time(2);
    b.index_launch_red(t_sum, 8, {B::arg(pa, P::kReadOnly, {fa})},
                       {s, rt::ReduceOp::kSum});
    b.end_for_time();
    b.single_task(t_add, {a}, {s});
    if (tail) {
      b.scalar_op({s}, {s},
                  [sv](const std::vector<double>& in,
                       std::vector<double>& out) { out[sv] = 2 * in[sv] + 1; });
      b.single_task(t_add, {a}, {s});
      b.index_launch(t_add, 8, {B::arg(pa, P::kReadWrite, {fa})}, {s});
    }
    program = b.finish();
  }
};

void expect_scalars_cross_fragments(bool tail, ExecMode mode) {
  rt::Runtime rt(runtime_config(4, 4, CostModel{}, /*real_data=*/true));
  ScalarProgram sp(rt.forest(), tail);
  SequentialResult oracle = run_sequential(sp.program);
  ExecConfig ecfg;
  ecfg.mode = mode;
  PreparedRun run = prepare(rt, sp.program, ecfg);
  if (mode == ExecMode::kSpmd) {
    ASSERT_TRUE(run.report.applied) << run.report.failure;
  }
  run.run();
  for (uint64_t pt = 0; pt < 32; ++pt) {
    ASSERT_EQ(run.engine->read_root_f64(sp.a, sp.fa, pt),
              oracle.read_f64(sp.a, sp.fa, pt))
        << "A[" << pt << "]";
  }
  EXPECT_EQ(run.engine->scalar(sp.s), oracle.scalar(sp.s));
}

TEST(MultiFragment, ShardScalarReachesLaterSingleTask) {
  expect_scalars_cross_fragments(/*tail=*/false, ExecMode::kSpmd);
  expect_scalars_cross_fragments(/*tail=*/false, ExecMode::kImplicit);
}

TEST(MultiFragment, MainScalarOpReachesLaterFragment) {
  expect_scalars_cross_fragments(/*tail=*/true, ExecMode::kSpmd);
  expect_scalars_cross_fragments(/*tail=*/true, ExecMode::kImplicit);
}

}  // namespace
}  // namespace cr::exec
