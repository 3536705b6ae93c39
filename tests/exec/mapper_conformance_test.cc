// Conformance suite for the programmable mapper API: every named policy
// (rt::mapper_names) must produce in-range, deterministic placements
// (a mapper is a pure function of its construction inputs and call
// arguments), the default policy's placements are golden-snapshotted
// (committed baselines depend on them bit-for-bit), every policy's rows
// match the per-color rules they replaced, and under every
// policy a randomized program must execute race-free and bit-identically
// from run to run — on a heterogeneous machine with an injected slowdown
// window and AM-handler jitter, i.e. the full scenario layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

std::vector<uint64_t> ones(uint64_t colors) {
  return std::vector<uint64_t>(colors, 1);
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
    const rt::Mapper a(machine, opt);
    const rt::Mapper b(machine, opt);
    EXPECT_EQ(a.name(), name);
    for (const uint64_t colors : {uint64_t{1}, uint64_t{4}, uint64_t{12}}) {
      const std::vector<uint64_t> w =
          colors == weights.size() ? weights : ones(colors);
      const std::vector<uint32_t> row = a.place(w);
      ASSERT_EQ(row.size(), colors) << name;
      for (uint64_t c = 0; c < colors; ++c) {
        EXPECT_LT(row[c], machine.nodes()) << name << " color " << c;
      }
      EXPECT_EQ(row, b.place(w)) << name;
    }
    for (uint32_t s = 0; s < 4; ++s) {
      EXPECT_LT(a.shard_node(s, 4), machine.nodes()) << name;
    }
    for (uint64_t seq = 0; seq < 6; ++seq) {
      const sim::ProcId p = a.compute_proc(2, seq);
      EXPECT_EQ(p.node, 2u) << name;
      EXPECT_GE(p.core, 1u) << name;  // core 0 is reserved
      EXPECT_LT(p.core, 3u) << name;
    }
    EXPECT_EQ(a.control_proc(1).core, 0u) << name;
  }
}

// Golden snapshot of the default policy's blocked placement. Changing
// any of these moves point tasks and instances for every committed
// BENCH_metrics baseline — they must stay exactly as before the
// registry existed.
TEST(MapperConformance, DefaultGoldenPlacements) {
  sim::Simulator sim;
  sim::Machine machine(sim, hetero_machine());
  const rt::Mapper m(machine, {});
  const std::vector<uint32_t> golden8 = {0, 0, 1, 1, 2, 2, 3, 3};
  EXPECT_EQ(m.place(ones(8)), golden8);
  EXPECT_EQ(m.place(ones(6)), (std::vector<uint32_t>{0, 0, 1, 1, 2, 3}));
  // Neither per-color weights nor node speeds may move the default
  // placement: it is a function of the color count alone.
  EXPECT_EQ(m.place(std::vector<uint64_t>{1000, 1, 1, 1, 1, 1, 1, 1}),
            golden8);
}

// The balanced policy follows the speed factors: on a 0.5/1/1/2 machine
// the slow node takes the smallest contiguous block and the fast node
// the largest, and blocks stay contiguous (locality-preserving).
TEST(MapperConformance, BalancedFollowsSpeedFactors) {
  sim::Simulator sim;
  sim::Machine machine(sim, hetero_machine());
  const rt::Mapper m(machine, rt::MapperOptions{.name = "balanced"});
  const uint64_t colors = 36;
  std::vector<uint32_t> count(4, 0);
  uint32_t prev = 0;
  for (const uint32_t node : m.place(ones(colors))) {
    ASSERT_GE(node, prev) << "blocks must stay contiguous";
    prev = node;
    ++count[node];
  }
  EXPECT_LT(count[0], count[1]);  // half-speed node gets fewer colors
  EXPECT_LT(count[1], count[3]);  // double-speed node gets more
  // Skewed weights shift the cuts: a launch whose early colors carry
  // almost all of the weight pushes more trailing colors onto the
  // early nodes than the uniform split would.
  std::vector<uint64_t> skewed = ones(colors);
  skewed[0] = 1000;
  std::vector<uint32_t> wcount(4, 0);
  for (const uint32_t node : m.place(skewed)) ++wcount[node];
  EXPECT_GT(wcount[3], count[3]);
}

TEST(MapperConformance, AdversarialClustersOnSlowestNode) {
  sim::Simulator sim;
  sim::Machine machine(sim, hetero_machine());
  const rt::Mapper m(machine, rt::MapperOptions{.name = "adversarial"});
  // Node 0 runs at 0.5x.
  EXPECT_EQ(m.place(ones(12)), std::vector<uint32_t>(12, 0));
}

// A typo must not silently fall back to a different placement.
TEST(MapperDeath, UnknownNameAborts) {
  sim::Simulator sim;
  sim::Machine machine(sim, hetero_machine());
  EXPECT_DEATH(rt::Mapper(machine, rt::MapperOptions{.name = "typo"}),
               "unknown mapper \"typo\"; known: default balanced adversarial");
}

// --- place against the per-color rules it replaced --------------------
//
// Each policy used to answer one color at a time. These are those rules,
// kept as the reference: a row from place must give every color the
// node its rule gives it, so no virtual timeline moves.

// default: ceil(colors/nodes) per node, the remainder on the leading
// nodes.
uint32_t ref_block_owner(uint64_t c, uint64_t colors, uint32_t parts) {
  const uint64_t base = colors / parts;
  const uint64_t rem = colors % parts;
  const uint64_t cut = rem * (base + 1);
  if (c < cut) return static_cast<uint32_t>(c / (base + 1));
  return static_cast<uint32_t>(rem + (c - cut) / base);
}

// balanced: color c belongs to the first node whose doubled cumulative
// speed target exceeds its doubled midpoint 2*prefix(c) + w_c (the last
// node if none does). All-zero weights count every color as 1 in the
// prefix, while the midpoint adds the color's own weight (0).
uint32_t ref_balanced(uint64_t c, const std::vector<uint64_t>& weights,
                      const std::vector<double>& speeds) {
  const uint64_t colors = weights.size();
  std::vector<uint64_t> prefix(colors + 1, 0);
  for (uint64_t i = 0; i < colors; ++i) prefix[i + 1] = prefix[i] + weights[i];
  uint64_t total = prefix[colors];
  if (total == 0) {
    for (uint64_t i = 0; i <= colors; ++i) prefix[i] = i;
    total = colors;
  }
  std::vector<uint64_t> permille;
  uint64_t speed_total = 0;
  for (const double s : speeds) {
    permille.push_back(
        static_cast<uint64_t>(std::llround(std::max(s, 0.0) * 1000.0)));
    if (permille.back() == 0) permille.back() = 1;
    speed_total += permille.back();
  }
  std::vector<uint64_t> node_cut;
  uint64_t cum = 0;
  for (const uint64_t p : permille) {
    cum += p;
    node_cut.push_back(2 * total * cum / speed_total);
  }
  const uint64_t pos = 2 * prefix[c] + weights[c];
  const auto it = std::upper_bound(node_cut.begin(), node_cut.end(), pos);
  return static_cast<uint32_t>(
      std::min<size_t>(it - node_cut.begin(), node_cut.size() - 1));
}

// adversarial: the slowest node, the lowest index on ties.
uint32_t ref_slowest(const std::vector<double>& speeds) {
  uint32_t hot = 0;
  for (uint32_t n = 1; n < speeds.size(); ++n) {
    if (speeds[n] < speeds[hot]) hot = n;
  }
  return hot;
}

TEST(MapperConformance, RowsMatchPerColorReference) {
  // A machine rejects a speed of 0; 0.0004 quantizes to 0 permille,
  // which is the case the balanced rule's floor of 1 exists for.
  const std::vector<double> speed_menu = {0.0004, 0.5, 1.0, 1.0,
                                          1.25,   2.0, 3.7};
  support::Rng rng(20171112);
  uint32_t fewer = 0, many = 0, zero = 0, dominant = 0;
  for (int k = 0; k < 240; ++k) {
    sim::MachineConfig mc;
    mc.nodes = 1 + static_cast<uint32_t>(rng.next_below(16));
    mc.cores_per_node = 2;
    for (uint32_t n = 0; n < mc.nodes; ++n) {
      mc.node_speed.push_back(speed_menu[rng.next_below(speed_menu.size())]);
    }
    sim::Simulator sim;
    sim::Machine machine(sim, mc);

    // Fewer colors than nodes, about as many, or many more.
    uint64_t colors = 0;
    switch (k % 3) {
      case 0: colors = rng.next_below(mc.nodes); break;
      case 1: colors = mc.nodes + rng.next_below(mc.nodes + 1); break;
      case 2: colors = mc.nodes * (4 + rng.next_below(40)) +
                       rng.next_below(mc.nodes); break;
    }
    fewer += colors < mc.nodes;
    many += colors >= 4 * uint64_t{mc.nodes};
    // All zero, all one, random with zeros, or one dominant color.
    std::vector<uint64_t> weights(colors, 0);
    switch ((k / 3) % 4) {
      case 0: break;
      case 1: weights.assign(colors, 1); break;
      case 2:
        for (uint64_t& w : weights) w = rng.next_below(100);
        break;
      case 3:
        for (uint64_t& w : weights) w = rng.next_below(3);
        if (colors > 0) {
          weights[rng.next_below(colors)] = 1'000'000;
          ++dominant;
        }
        break;
    }
    zero += colors > 0 && std::all_of(weights.begin(), weights.end(),
                                      [](uint64_t w) { return w == 0; });

    const std::string where = "case " + std::to_string(k) + ": " +
                              std::to_string(mc.nodes) + " nodes, " +
                              std::to_string(colors) + " colors";
    for (const std::string& name : rt::mapper_names()) {
      const rt::Mapper m(machine, rt::MapperOptions{.name = name});
      const std::vector<uint32_t> row = m.place(weights);
      ASSERT_EQ(row.size(), colors) << name << " " << where;
      for (uint64_t c = 0; c < colors; ++c) {
        const uint32_t want =
            name == "default"    ? ref_block_owner(c, colors, mc.nodes)
            : name == "balanced" ? ref_balanced(c, weights, mc.node_speed)
                                 : ref_slowest(mc.node_speed);
        ASSERT_EQ(row[c], want) << name << " color " << c << ", " << where;
      }
    }
  }
  // The draw covers each shape the rows must handle.
  EXPECT_GT(fewer, 20u);
  EXPECT_GT(many, 40u);
  EXPECT_GT(zero, 20u);
  EXPECT_GT(dominant, 20u);
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
