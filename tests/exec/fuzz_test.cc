// Property/fuzz testing: control replication must preserve sequential
// semantics for *arbitrary* programmer-specified partitions (the paper's
// central guarantee, §1: "the transformation is guaranteed to succeed for
// any programmer-specified partitions of the data, even though the
// partitions can be arbitrary").
//
// Each seed generates a random program — random region sizes, random
// aliased image partitions through random pointer maps, random task
// sequences with random privileges, optional region and scalar reductions
// — and checks that implicit and CR-SPMD executions reproduce the
// sequential oracle bit-for-bit (min/max) or to tight tolerance (sums,
// whose fold order legitimately differs).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"
#include "ir/builder.h"
#include "rt/partition.h"
#include "support/rng.h"
#include "testing/random_program.h"

namespace cr::exec {
namespace {

using testing::RandomProgram;
using testing::make_random_program;


class CrFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrFuzz, ImplicitAndSpmdMatchOracle) {
  support::Rng rng(GetParam() * 7919 + 13);
  const uint32_t nodes = 1 + static_cast<uint32_t>(rng.next_below(8));
  const uint64_t colors = nodes + rng.next_below(2 * nodes + 1);

  passes::PipelineOptions opt;
  opt.copy_placement = rng.next_bool(0.7);
  opt.intersection_opt = rng.next_bool(0.8);
  opt.p2p_sync = rng.next_bool(0.7);
  opt.hierarchical = rng.next_bool(0.8);

  CostModel cost;
  cost.track_dependences = rng.next_bool(0.7);

  // Oracle.
  rt::Runtime rt_seq(runtime_config(1, 2, cost, true));
  support::Rng rng_prog = rng.split(1);
  RandomProgram seq = make_random_program(rt_seq.forest(), rng_prog, colors);
  SequentialResult oracle = run_sequential(seq.program);

  auto check = [&](Engine& engine, const RandomProgram& rp,
                   const char* what) {
    for (const auto& info : rp.regions) {
      const uint64_t n =
          rt_seq.forest().region(info.region).ispace.size();
      for (uint64_t p = 0; p < n; ++p) {
        const double got = engine.read_root_f64(info.region, info.field, p);
        const double want = oracle.read_f64(info.region, info.field, p);
        ASSERT_NEAR(got, want, 1e-9 * (1.0 + std::abs(want)))
            << what << ": region " << info.region << " point " << p
            << " (seed " << GetParam() << ")";
      }
    }
    for (ir::ScalarId s : rp.scalars) {
      ASSERT_NEAR(engine.scalar(s), oracle.scalar(s), 1e-9)
          << what << ": scalar " << s;
    }
  };

  {
    rt::Runtime rt(runtime_config(nodes, 3, cost, true));
    support::Rng r2 = rng.split(1);
    RandomProgram rp = make_random_program(rt.forest(), r2, colors);
    ExecConfig ecfg;
    ecfg.cost = cost;
    ecfg.mode = ExecMode::kImplicit;
    ecfg.pipeline = opt;
    PreparedRun run = prepare(rt, rp.program, ecfg);
    run.run();
    check(*run.engine, rp, "implicit");
  }
  {
    rt::Runtime rt(runtime_config(nodes, 3, cost, true));
    support::Rng r2 = rng.split(1);
    RandomProgram rp = make_random_program(rt.forest(), r2, colors);
    // Run SPMD under the race checker: beyond matching the oracle's
    // data, the inserted synchronization must *order* every conflicting
    // access pair — data equality alone can be schedule luck.
    ExecConfig cfg;
    cfg.pipeline = opt;
    cfg.cost = cost;
    cfg.mode = ExecMode::kSpmd;
    cfg.check = true;
    PreparedRun run = prepare(rt, rp.program, cfg);
    ExecutionResult res = run.run();
    ASSERT_TRUE(res.check->ok())
        << "seed " << GetParam() << ": " << res.check->to_text();
    check(*run.engine, rp, "spmd");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrFuzz, ::testing::Range<uint64_t>(0, 60));

}  // namespace
}  // namespace cr::exec
