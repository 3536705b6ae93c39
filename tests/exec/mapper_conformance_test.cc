// Conformance suite for the programmable mapper API: every named policy
// (rt::mapper_names) must produce in-range, deterministic placements
// (a mapper is a pure function of its construction inputs and call
// arguments), the default policy's placements are golden-snapshotted
// (committed baselines depend on them bit-for-bit), and under every
// policy a randomized program must execute race-free and bit-identically
// from run to run — on a heterogeneous machine with an injected slowdown
// window and AM-handler jitter, i.e. the full scenario layer.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "exec/implicit_exec.h"
#include "rt/mapper.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "testing/random_program.h"

namespace cr::exec {
namespace {

using testing::RandomProgram;
using testing::make_random_program;

sim::MachineConfig hetero_machine() {
  sim::MachineConfig mc;
  mc.nodes = 4;
  mc.cores_per_node = 3;
  mc.node_speed = {0.5, 1.0, 1.0, 2.0};
  return mc;
}

TEST(MapperRegistry, BuiltInPoliciesAreRegistered) {
  EXPECT_EQ(rt::mapper_names(),
            (std::vector<std::string>{"default", "balanced", "adversarial"}));
}

// Every named policy: placements within the machine, and two
// independently constructed instances agree point-for-point.
TEST(MapperConformance, PlacementsInRangeAndDeterministic) {
  sim::Simulator sim;
  sim::Machine machine(sim, hetero_machine());
  const std::vector<uint64_t> weights = {5, 1, 1, 1, 9, 2,
                                         2, 2, 1, 1, 3, 7};
  for (const std::string& name : rt::mapper_names()) {
    rt::MapperOptions opt;
    opt.name = name;
    const auto a = rt::make_mapper(machine, opt);
    const auto b = rt::make_mapper(machine, opt);
    EXPECT_EQ(a->name(), name);
    for (const uint64_t colors : {uint64_t{1}, uint64_t{4}, uint64_t{12}}) {
      const rt::LaunchShape shape{
          colors, colors == weights.size() ? &weights : nullptr};
      for (uint64_t c = 0; c < colors; ++c) {
        const uint32_t node = a->node_of_color(c, shape);
        EXPECT_LT(node, machine.nodes()) << name << " color " << c;
        EXPECT_EQ(node, b->node_of_color(c, shape))
            << name << " color " << c;
      }
    }
    for (uint32_t s = 0; s < 4; ++s) {
      EXPECT_LT(a->shard_node(s, 4), machine.nodes()) << name;
    }
    for (uint64_t seq = 0; seq < 6; ++seq) {
      const sim::ProcId p = a->compute_proc(2, seq);
      EXPECT_EQ(p.node, 2u) << name;
      EXPECT_GE(p.core, 1u) << name;  // core 0 is reserved
      EXPECT_LT(p.core, 3u) << name;
    }
    EXPECT_EQ(a->control_proc(1).core, 0u) << name;
  }
}

// Golden snapshot of the default policy's blocked placement. Changing
// any of these moves point tasks and instances for every committed
// BENCH_metrics baseline — they must stay exactly as before the
// registry existed.
TEST(MapperConformance, DefaultGoldenPlacements) {
  sim::Simulator sim;
  sim::Machine machine(sim, hetero_machine());
  const auto m = rt::make_mapper(machine, {});
  const std::vector<uint32_t> golden8 = {0, 0, 1, 1, 2, 2, 3, 3};
  const std::vector<uint32_t> golden6 = {0, 0, 1, 1, 2, 3};
  for (uint64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(m->node_of_color(c, 8), golden8[c]) << c;
  }
  for (uint64_t c = 0; c < 6; ++c) {
    EXPECT_EQ(m->node_of_color(c, 6), golden6[c]) << c;
  }
  // Neither per-color weights nor node speeds may move the default
  // placement: it is a function of num_colors alone.
  const std::vector<uint64_t> skewed = {1000, 1, 1, 1, 1, 1, 1, 1};
  for (uint64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(m->node_of_color(c, rt::LaunchShape{8, &skewed}), golden8[c])
        << c;
  }
}

// The balanced policy follows the speed factors: on a 0.5/1/1/2 machine
// the slow node takes the smallest contiguous block and the fast node
// the largest, and blocks stay contiguous (locality-preserving).
TEST(MapperConformance, BalancedFollowsSpeedFactors) {
  sim::Simulator sim;
  sim::Machine machine(sim, hetero_machine());
  const auto m = rt::make_mapper(
      machine, rt::MapperOptions{.name = "balanced"});
  const uint64_t colors = 36;
  std::vector<uint32_t> count(4, 0);
  uint32_t prev = 0;
  for (uint64_t c = 0; c < colors; ++c) {
    const uint32_t node = m->node_of_color(c, colors);
    ASSERT_GE(node, prev) << "blocks must stay contiguous";
    prev = node;
    ++count[node];
  }
  EXPECT_LT(count[0], count[1]);  // half-speed node gets fewer colors
  EXPECT_LT(count[1], count[3]);  // double-speed node gets more
  // Skewed weights shift the cuts: a launch whose early colors carry
  // almost all of the weight pushes more trailing colors onto the
  // early nodes than the uniform split would.
  std::vector<uint64_t> skewed(colors, 1);
  skewed[0] = 1000;
  std::vector<uint32_t> wcount(4, 0);
  for (uint64_t c = 0; c < colors; ++c) {
    ++wcount[m->node_of_color(c, rt::LaunchShape{colors, &skewed})];
  }
  EXPECT_GT(wcount[3], count[3]);
}

TEST(MapperConformance, AdversarialClustersOnSlowestNode) {
  sim::Simulator sim;
  sim::Machine machine(sim, hetero_machine());
  const auto m = rt::make_mapper(
      machine, rt::MapperOptions{.name = "adversarial"});
  for (uint64_t c = 0; c < 12; ++c) {
    EXPECT_EQ(m->node_of_color(c, 12), 0u);  // node 0 runs at 0.5x
  }
}

// --- end-to-end: every policy runs randomized programs race-free and
// bit-identically under the full scenario layer -----------------------

ExecutionResult run_random(uint64_t seed, const std::string& mapper) {
  support::Rng rng(seed * 7717 + 11);
  const uint32_t nodes = 3;
  const uint64_t colors = nodes + rng.next_below(2 * nodes);

  CostModel cost;
  cost.track_dependences = false;
  cost.network.am_jitter_ns = 150;
  cost.network.jitter_seed = 5;
  rt::RuntimeConfig rc = runtime_config(nodes, 3, cost, /*real_data=*/false);
  rc.machine.node_speed = {0.5, 1.0, 2.0};
  rc.machine.slowdowns.push_back(
      {/*node=*/1, /*begin=*/10'000, /*end=*/500'000, /*factor=*/3.0});
  rt::Runtime rt(rc);
  support::Rng rng_prog = rng.split(1);
  RandomProgram rp = make_random_program(rt.forest(), rng_prog, colors);

  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kSpmd;
  cfg.check = true;
  cfg.mapper.name = mapper;
  PreparedRun run = prepare(rt, rp.program, cfg);
  return run.run();
}

class MapperScenario : public ::testing::TestWithParam<uint64_t> {};

// The name dates from the multi-worker backend, whose worker counts this
// test compared; the single event loop keeps the race-free, repeatable
// run it checked as the reference.
TEST_P(MapperScenario, WorkerCountsAgreeUnderEveryPolicy) {
  const uint64_t seed = GetParam();
  for (const std::string& mapper :
       rt::mapper_names()) {
    const std::string where = mapper + " seed " + std::to_string(seed);
    const ExecutionResult ref = run_random(seed, mapper);
    ASSERT_GT(ref.makespan_ns, 0u) << where;
    ASSERT_NE(ref.check, nullptr) << where;
    EXPECT_TRUE(ref.check->ok()) << where;
    const ExecutionResult res = run_random(seed, mapper);
    EXPECT_EQ(res.makespan_ns, ref.makespan_ns) << where;
    EXPECT_EQ(res.metrics, ref.metrics) << where;
    ASSERT_NE(res.check, nullptr) << where;
    EXPECT_EQ(res.check->stats.races, ref.check->stats.races) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperScenario,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace cr::exec
