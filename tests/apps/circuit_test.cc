#include "apps/circuit/circuit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"
#include "support/hash.h"

namespace cr::apps::circuit {
namespace {

using exec::CostModel;

TEST(CircuitGraph, GeneratorInvariants) {
  GraphConfig gc;
  gc.pieces = 8;
  gc.nodes_per_piece = 32;
  gc.wires_per_piece = 96;
  gc.pct_cross = 0.2;
  gc.window = 2;
  Graph g = generate_graph(gc);
  ASSERT_EQ(g.in_node.size(), g.num_wires());
  uint64_t cross = 0;
  for (uint64_t w = 0; w < g.num_wires(); ++w) {
    EXPECT_LT(g.in_node[w], g.num_nodes());
    EXPECT_LT(g.out_node[w], g.num_nodes());
    EXPECT_NE(g.in_node[w], g.out_node[w]);
    EXPECT_EQ(g.piece_of_node(g.in_node[w]), g.piece_of_wire(w));
    const uint64_t pw = g.piece_of_wire(w);
    const uint64_t po = g.piece_of_node(g.out_node[w]);
    if (po != pw) {
      ++cross;
      // Cross wires stay within the window (sparsity of intersections).
      EXPECT_LE(po > pw ? po - pw : pw - po, gc.window);
      EXPECT_TRUE(g.shared[g.out_node[w]]);
      EXPECT_TRUE(g.shared[g.in_node[w]]);
    }
  }
  EXPECT_GT(cross, 0u);
  EXPECT_LT(cross, g.num_wires() / 2);
}

TEST(CircuitGraph, DeterministicBySeed) {
  GraphConfig gc;
  gc.pieces = 4;
  Graph a = generate_graph(gc);
  Graph b = generate_graph(gc);
  EXPECT_EQ(a.in_node, b.in_node);
  EXPECT_EQ(a.out_node, b.out_node);
}

// A digest of every drawn value: both endpoints of each wire (widened to
// 64 bits, as the kernels read them) and the shared flag of each node.
uint64_t draw_digest(const Graph& g) {
  uint64_t h = support::hash_mix(g.num_wires());
  for (uint64_t n : g.in_node) h = support::hash_mix(h ^ n);
  for (uint64_t n : g.out_node) h = support::hash_mix(h ^ n);
  for (bool s : g.shared) h = support::hash_mix(h ^ (s ? 1u : 0u));
  return h;
}

// The wire endpoints feed the Real-mode kernels but not the region
// forest, so RegionForestGolden.* cannot see a reordered draw. These
// digests must never move: a different draw order makes a different
// graph and moves every circuit baseline.
TEST(CircuitGraph, DrawOrderPinned) {
  // Figure 9's geometry at 16 nodes: 128 nodes per piece, so every node
  // draw takes next_below's power-of-two path.
  const GraphConfig fig9 = graph_config(figure_config(16, /*steps=*/1));
  EXPECT_EQ(draw_digest(generate_graph(fig9)), 0x61ee082946e2919dull);

  // 24 nodes per piece and a window of 3: the rejection path.
  GraphConfig odd;
  odd.pieces = 13;
  odd.nodes_per_piece = 24;
  odd.wires_per_piece = 72;
  odd.pct_cross = 0.15;
  odd.window = 3;
  odd.seed = 7;
  EXPECT_EQ(draw_digest(generate_graph(odd)), 0xa62a76ec1725f357ull);
}

// The ghost partition is built from `cross_wires`; check the list against
// every wire, and the ghosts against a scan of both endpoints of every
// wire (the loop the list replaced).
TEST(CircuitGraph, CrossWiresAreTheCrossPieceWires) {
  support::Rng pick(31);
  for (int trial = 0; trial < 12; ++trial) {
    Config cfg;
    cfg.nodes = 1 + static_cast<uint32_t>(pick.next_below(4));
    cfg.pieces_per_node = 1 + static_cast<uint32_t>(pick.next_below(4));
    cfg.nodes_per_piece = 2 + pick.next_below(40);
    cfg.wires_per_piece = 1 + pick.next_below(100);
    cfg.pct_cross = trial == 0 ? 0.0 : 0.5 * pick.next_double();
    cfg.window = 1 + pick.next_below(4);
    cfg.seed = pick.next_u64();
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    rt::Runtime rt(exec::runtime_config(cfg.nodes, 4, CostModel{}, false));
    const App app = build(rt, cfg);
    const Graph& g = *app.graph;

    std::vector<uint64_t> expected;
    for (uint64_t w = 0; w < g.num_wires(); ++w) {
      if (g.piece_of_node(g.out_node[w]) != g.piece_of_wire(w)) {
        expected.push_back(w);
      }
    }
    EXPECT_EQ(g.cross_wires, expected);
    if (cfg.pct_cross == 0.0) {
      EXPECT_TRUE(g.cross_wires.empty());
    }

    std::vector<std::vector<uint64_t>> ghost_pts(app.pieces);
    for (uint64_t w = 0; w < g.num_wires(); ++w) {
      const uint64_t piece = g.piece_of_wire(w);
      for (uint64_t end : {g.in_node[w], g.out_node[w]}) {
        if (g.shared[end] && g.piece_of_node(end) != piece) {
          ghost_pts[piece].push_back(end);
        }
      }
    }
    const rt::RegionForest& forest = rt.forest();
    const rt::PartitionNode& gst = forest.partition(app.p_gst);
    ASSERT_EQ(gst.subregions.size(), app.pieces);
    for (uint64_t piece = 0; piece < app.pieces; ++piece) {
      EXPECT_EQ(forest.region(gst.subregions[piece]).ispace.points(),
                support::IntervalSet::from_points(ghost_pts[piece]))
          << "piece " << piece;
    }
  }
}

TEST(CircuitGraph, WindowZeroIsFineWithoutCrossWires) {
  GraphConfig gc;
  gc.pieces = 3;
  gc.window = 0;
  gc.pct_cross = 0.0;
  EXPECT_TRUE(generate_graph(gc).cross_wires.empty());
  gc.pieces = 1;
  gc.pct_cross = 0.5;
  EXPECT_TRUE(generate_graph(gc).cross_wires.empty());
}

TEST(CircuitGraphDeath, RejectsNodeIdsPast32Bits) {
  GraphConfig gc;
  gc.nodes_per_piece = 2;
  gc.pieces = uint64_t{UINT32_MAX} / 2 + 1;  // 2^32 nodes
  EXPECT_DEATH(generate_graph(gc), "must fit 32-bit node ids");
  // A product that wraps 64 bits is caught too.
  gc.pieces = uint64_t{1} << 40;
  gc.nodes_per_piece = uint64_t{1} << 30;
  EXPECT_DEATH(generate_graph(gc), "must fit 32-bit node ids");
}

TEST(CircuitGraphDeath, RejectsPctCrossOutsideUnitInterval) {
  GraphConfig gc;
  for (double pct : {-0.1, 1.5, std::nan("")}) {
    gc.pct_cross = pct;
    EXPECT_DEATH(generate_graph(gc), "must lie in \\[0, 1\\]") << pct;
  }
}

TEST(CircuitGraphDeath, RejectsWindowZeroWithCrossWires) {
  GraphConfig gc;
  gc.pieces = 2;
  gc.window = 0;
  gc.pct_cross = 0.1;
  EXPECT_DEATH(generate_graph(gc), "set window >= 1 or pct_cross = 0");
}

TEST(Circuit, HierarchicalTreeProvesPrivateDisjoint) {
  rt::Runtime rt(exec::runtime_config(2, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = 2;
  cfg.pieces_per_node = 2;
  cfg.nodes_per_piece = 24;
  cfg.wires_per_piece = 64;
  App app = build(rt, cfg);
  // The compiler can prove private partitions never communicate.
  EXPECT_FALSE(rt.forest().partitions_may_alias(app.p_pvt, app.p_gst));
  EXPECT_FALSE(rt.forest().partitions_may_alias(app.p_pvt, app.p_shr));
  EXPECT_TRUE(rt.forest().partitions_may_alias(app.p_shr, app.p_gst));
}

double total_vc(const exec::SequentialResult& r, const App& app,
                uint64_t n) {
  double acc = 0;
  for (uint64_t i = 0; i < n; ++i) {
    acc += r.read_f64(app.rn, app.f_voltage, i) *
           r.read_f64(app.rn, app.f_cap, i);
  }
  return acc;
}

TEST(Circuit, OracleConservesChargeWithoutLeakage) {
  rt::Runtime rt(exec::runtime_config(1, 4, CostModel{}, true));
  Config cfg;
  cfg.pieces_per_node = 4;
  cfg.nodes_per_piece = 32;
  cfg.wires_per_piece = 96;
  cfg.steps = 1;
  cfg.leakage = 0.0;
  App one = build(rt, cfg);
  exec::SequentialResult r1 = exec::run_sequential(one.program);

  rt::Runtime rt2(exec::runtime_config(1, 4, CostModel{}, true));
  cfg.steps = 6;
  App six = build(rt2, cfg);
  exec::SequentialResult r6 = exec::run_sequential(six.program);

  // Sum of V*C is invariant across steps (charge only moves).
  EXPECT_NEAR(total_vc(r1, one, one.graph->num_nodes()),
              total_vc(r6, six, six.graph->num_nodes()), 1e-6);
}

class CircuitEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(CircuitEquivalence, MatchesOracle) {
  const uint32_t nodes = std::get<0>(GetParam());
  const bool spmd = std::get<1>(GetParam());
  rt::Runtime rt(exec::runtime_config(nodes, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 2;
  cfg.nodes_per_piece = 24;
  cfg.wires_per_piece = 72;
  cfg.steps = 3;
  cfg.pct_cross = 0.15;
  cfg.leakage = 0.05;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  exec::ExecConfig ecfg;
  ecfg.mode = spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit;
  exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
  run.run();
  for (uint64_t n = 0; n < app.graph->num_nodes(); ++n) {
    ASSERT_NEAR(run.engine->read_root_f64(app.rn, app.f_voltage, n),
                oracle.read_f64(app.rn, app.f_voltage, n), 1e-12)
        << "voltage[" << n << "]";
    ASSERT_NEAR(run.engine->read_root_f64(app.rn, app.f_charge, n),
                oracle.read_f64(app.rn, app.f_charge, n), 1e-12);
  }
  for (uint64_t w = 0; w < app.graph->num_wires(); ++w) {
    ASSERT_NEAR(run.engine->read_root_f64(app.rw, app.f_current, w),
                oracle.read_f64(app.rw, app.f_current, w), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CircuitEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 4u), ::testing::Bool()));

TEST(Circuit, SpmdWithBarriersAndNoIntersectionsStillCorrect) {
  rt::Runtime rt(exec::runtime_config(3, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = 3;
  cfg.pieces_per_node = 2;
  cfg.nodes_per_piece = 20;
  cfg.wires_per_piece = 60;
  cfg.steps = 2;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  passes::PipelineOptions opt;
  opt.p2p_sync = false;
  opt.intersection_opt = false;
  opt.copy_placement = false;
  exec::ExecConfig ecfg;
  ecfg.mode = exec::ExecMode::kSpmd;
  ecfg.pipeline = opt;
  exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
  run.run();
  for (uint64_t n = 0; n < app.graph->num_nodes(); ++n) {
    ASSERT_NEAR(run.engine->read_root_f64(app.rn, app.f_voltage, n),
                oracle.read_f64(app.rn, app.f_voltage, n), 1e-12);
  }
}


// The full pipeline-option matrix on the most structurally demanding app
// (hierarchical trees + region reductions): every combination must still
// reproduce the oracle.
class CircuitOptions
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool, bool>> {};

TEST_P(CircuitOptions, AllPipelineVariantsMatchOracle) {
  passes::PipelineOptions opt;
  opt.copy_placement = std::get<0>(GetParam());
  opt.intersection_opt = std::get<1>(GetParam());
  opt.p2p_sync = std::get<2>(GetParam());
  opt.hierarchical = std::get<3>(GetParam());
  rt::Runtime rt(exec::runtime_config(3, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = 3;
  cfg.pieces_per_node = 2;
  cfg.nodes_per_piece = 16;
  cfg.wires_per_piece = 48;
  cfg.steps = 2;
  cfg.pct_cross = 0.2;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  exec::ExecConfig ecfg;
  ecfg.mode = exec::ExecMode::kSpmd;
  ecfg.pipeline = opt;
  exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
  run.run();
  for (uint64_t n = 0; n < app.graph->num_nodes(); ++n) {
    ASSERT_NEAR(run.engine->read_root_f64(app.rn, app.f_voltage, n),
                oracle.read_f64(app.rn, app.f_voltage, n), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, CircuitOptions,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

}  // namespace
}  // namespace cr::apps::circuit
