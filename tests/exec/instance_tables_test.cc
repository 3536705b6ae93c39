// The engine's instance tables. An op's region use resolves to one
// instance per (partition, color) or per root region, made at first
// touch: creation order is the instance-sync key order and so the race
// checker's place-key order, and each instance sits where the mapper
// puts its color. The tables are flat, indexed by dense ids; these
// tests pin what they must preserve, under the default mapper (which
// ignores weights) and the balanced one (which places by the per-color
// weights the tables hand it).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/circuit/circuit.h"
#include "exec/implicit_exec.h"
#include "rt/mapper.h"
#include "testing/fig2.h"

namespace cr::exec {
namespace {

struct Placement {
  // (region, node) per instance, in creation order: instance ids and
  // sync keys are both handed out once per instance, in this order.
  std::vector<std::pair<rt::RegionId, uint32_t>> instances;
  std::vector<uint64_t> places;  // checker place keys, in log order
};

// Every region an index launch names has an instance.
void expect_launch_regions_instanced(const std::vector<ir::Stmt>& body,
                                     const rt::RegionForest& forest,
                                     const std::set<rt::RegionId>& have) {
  for (const ir::Stmt& s : body) {
    expect_launch_regions_instanced(s.body, forest, have);
    if (s.kind != ir::StmtKind::kIndexLaunch) continue;
    for (const ir::RegionArg& a : s.args) {
      const rt::PartitionNode& pn = forest.partition(a.partition);
      for (uint64_t c = 0; c < s.launch_colors; ++c) {
        EXPECT_EQ(have.count(pn.subregions[a.proj(c)]), 1u)
            << "launch color " << c << " of partition " << a.partition;
      }
    }
  }
}

Placement run_circuit(ExecMode mode, const std::string& mapper) {
  CostModel cost;
  rt::Runtime rt(runtime_config(16, 2, cost, /*real_data=*/true));
  apps::circuit::Config cfg;
  cfg.nodes = 16;
  cfg.pieces_per_node = 2;
  cfg.nodes_per_piece = 8;
  cfg.wires_per_piece = 24;
  cfg.steps = 2;
  auto app = apps::circuit::build(rt, cfg);
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = mode;
  ecfg.check = mode == ExecMode::kImplicit;
  ecfg.mapper.name = mapper;
  PreparedRun run = prepare(rt, app.program, ecfg);
  run.run();

  Placement out;
  const rt::RegionForest& forest = rt.forest();
  const rt::InstanceManager& mgr = *rt.instances();
  for (rt::InstanceId id = 0; id < mgr.count(); ++id) {
    const rt::PhysicalInstance& inst = mgr.get(id);
    out.instances.emplace_back(inst.region(), inst.node());
    // A partition's instance sits where the mapper places its color
    // (with the subregion sizes as weights); master data lives on node 0.
    const rt::PartitionId p = forest.region(inst.region()).parent;
    if (p == rt::kNoId) {
      EXPECT_EQ(inst.node(), 0u) << "root instance " << id;
      continue;
    }
    const std::vector<rt::RegionId>& subs = forest.partition(p).subregions;
    const uint64_t color = static_cast<uint64_t>(
        std::find(subs.begin(), subs.end(), inst.region()) - subs.begin());
    std::vector<uint64_t> weights;
    for (rt::RegionId r : subs) {
      weights.push_back(forest.region(r).ispace.size());
    }
    EXPECT_EQ(inst.node(), rt::Mapper(rt.machine(), ecfg.mapper)
                               .place(weights)[color])
        << mapper << " instance " << id;
  }
  // One instance per region, and one for every launched color.
  std::set<rt::RegionId> regions;
  for (const auto& [region, node] : out.instances) regions.insert(region);
  EXPECT_EQ(regions.size(), out.instances.size());
  expect_launch_regions_instanced(run.program->body, forest, regions);
  for (const check::Access& a : run.engine->access_log().accesses) {
    // Odd places are scalar-reduction partials buffers, keyed by address.
    if ((a.place & 1) == 0) {
      EXPECT_LT(a.place >> 1, mgr.count());
    }
    out.places.push_back((a.place & 1) != 0 ? 1 : a.place);
  }
  return out;
}

TEST(InstanceTables, SpmdPlacementAndKeyOrderReplay) {
  const Placement a = run_circuit(ExecMode::kSpmd, "default");
  const Placement b = run_circuit(ExecMode::kSpmd, "default");
  EXPECT_FALSE(a.instances.empty());
  EXPECT_EQ(a.instances, b.instances);
}

TEST(InstanceTables, ImplicitPlacementKeyAndPlaceOrderReplay) {
  const Placement a = run_circuit(ExecMode::kImplicit, "default");
  const Placement b = run_circuit(ExecMode::kImplicit, "default");
  EXPECT_FALSE(a.instances.empty());
  EXPECT_FALSE(a.places.empty());
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_EQ(a.places, b.places);
}

// Under the balanced mapper each partition's row of nodes follows its
// subregion sizes, and replays exactly.
TEST(InstanceTables, BalancedMapperPlacementAndKeyOrderReplay) {
  for (ExecMode mode : {ExecMode::kSpmd, ExecMode::kImplicit}) {
    const Placement a = run_circuit(mode, "balanced");
    const Placement b = run_circuit(mode, "balanced");
    EXPECT_FALSE(a.instances.empty());
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.places, b.places);
  }
}

// A projection past the partition's colors is caught by the instance
// lookup's bounds check, not read out of the table. TF's second argument
// is not its domain argument, so only the lookup sees the bad color.
TEST(InstanceTablesDeath, OutOfRangeColorAborts) {
  CostModel cost;
  rt::Runtime rt(runtime_config(2, 2, cost, /*real_data=*/false));
  testing::Fig2 fig(rt.forest(), 24, 4, 1);
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kImplicit;
  PreparedRun run = prepare(rt, fig.program, cfg);
  ir::Stmt* tf = nullptr;
  for (ir::Stmt& loop : run.program->body) {
    if (loop.kind != ir::StmtKind::kForTime) continue;
    for (ir::Stmt& s : loop.body) {
      if (s.kind == ir::StmtKind::kIndexLaunch && s.task == fig.t_f) tf = &s;
    }
  }
  ASSERT_NE(tf, nullptr);
  ASSERT_EQ(tf->args.size(), 2u);
  tf->args[1].proj.fn = [](uint64_t c) { return c + 4; };
  EXPECT_DEATH(run.run(), "CHECK failed: color < pn\\.subregions\\.size\\(\\)");
}

}  // namespace
}  // namespace cr::exec
