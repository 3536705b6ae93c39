// Quiescence diagnostics: an op whose completion can never trigger must
// abort the run with its label, built only then from the op's compact
// (kind, statement, color) record.
#include "exec/live_ops.h"

#include <gtest/gtest.h>

#include "sim/processor.h"
#include "sim/simulator.h"

namespace cr::exec {
namespace {

struct Ops {
  Ops() {
    ir::TaskDecl relax;
    relax.name = "relax";
    program.tasks.push_back(relax);
    launch.kind = ir::StmtKind::kIndexLaunch;
    single.kind = ir::StmtKind::kSingleTask;
    fill.kind = ir::StmtKind::kFill;
    fill.fill_dst = 5;
  }
  ir::Program program;
  ir::Stmt launch, single, fill;
  sim::Simulator sim;
  sim::Processor proc{sim, {0, 0}};
  LiveOps ops;
};

TEST(LiveOps, CompletedOpsQuiesce) {
  Ops f;
  f.ops.track(f.proc.spawn(sim::Event(), 10), LiveOps::Kind::kTask,
              f.launch, 0);
  f.ops.track(f.proc.spawn(sim::Event(), 10), LiveOps::Kind::kFill,
              f.fill, 1);
  f.sim.run();
  f.ops.check_quiesced(f.sim, f.program);  // returns
}

TEST(LiveOpsDeath, StuckOpsAbortWithTheirLabels) {
  Ops f;
  // A never-triggered event wired through the builder: everything
  // downstream of it is stuck.
  const sim::Event never = f.sim.make_event();
  f.ops.track(f.proc.spawn(sim::Event(), 10), LiveOps::Kind::kTask,
              f.launch, 0);
  f.ops.track(f.proc.spawn(never, 10), LiveOps::Kind::kTask, f.launch, 3);
  f.ops.track(f.sim.merge({never, sim::Event()}), LiveOps::Kind::kSingle,
              f.single, 0);
  const sim::Event copied = f.sim.make_event();
  f.sim.trigger_when(copied, never);
  f.ops.track(copied, LiveOps::Kind::kFill, f.fill, 2);
  f.sim.run();
  EXPECT_DEATH(f.ops.check_quiesced(f.sim, f.program),
               "execution did not quiesce; stuck ops:\n"
               "  task relax\\[3\\]\n"
               "  single relax\n"
               "  fill 5\\[2\\]\n$");
}

TEST(LiveOpsDeath, StuckListIsCappedAtTwenty) {
  Ops f;
  const sim::Event never = f.sim.make_event();
  for (uint64_t c = 0; c < 25; ++c) {
    f.ops.track(f.proc.spawn(never, 1), LiveOps::Kind::kTask, f.launch, c);
  }
  f.sim.run();
  // The first 20 in issue order, and nothing after the 20th.
  EXPECT_DEATH(f.ops.check_quiesced(f.sim, f.program),
               "stuck ops:\n  task relax\\[0\\]\n.*"
               "  task relax\\[19\\]\n$");
}

}  // namespace
}  // namespace cr::exec
