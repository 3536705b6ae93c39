#include "apps/stencil/stencil.h"

#include <gtest/gtest.h>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"

namespace cr::apps::stencil {
namespace {

using exec::CostModel;
using exec::PreparedRun;

TEST(Stencil, BuildShapes) {
  rt::Runtime rt(exec::runtime_config(2, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = 2;
  cfg.tasks_per_node = 3;
  cfg.tile_x = 8;
  cfg.tile_y = 8;
  App app = build(rt, cfg);
  EXPECT_EQ(app.total_tiles, 6u);
  EXPECT_EQ(app.tiles_x * app.tiles_y, 6u);
  const auto& forest = rt.forest();
  EXPECT_TRUE(forest.partition(app.out_tiles).disjoint);
  EXPECT_TRUE(forest.partition(app.p_int).disjoint);
  EXPECT_TRUE(forest.partition(app.p_bnd).disjoint);
  EXPECT_FALSE(forest.partition(app.p_halo).disjoint);
  // The hierarchical split proves interiors never communicate (§4.5).
  EXPECT_FALSE(forest.partitions_may_alias(app.p_int, app.p_halo));
  EXPECT_TRUE(forest.partitions_may_alias(app.p_bnd, app.p_halo));
  // With radius 2, an 8x8 tile has a 4x4 interior.
  EXPECT_EQ(forest.region(forest.subregion(app.p_int, 0)).ispace.size(),
            16u);
  EXPECT_EQ(forest.region(forest.subregion(app.p_bnd, 0)).ispace.size(),
            48u);
  // A halo covers at most the four neighbor ring strips.
  for (uint64_t c = 0; c < 6; ++c) {
    const auto& halo =
        forest.region(forest.subregion(app.p_halo, c)).ispace;
    EXPECT_GT(halo.size(), 0u);
    EXPECT_LE(halo.size(), 48u + 4 * 2 * 8u);
  }
}

TEST(Stencil, OracleMatchesClosedForm) {
  rt::Runtime rt(exec::runtime_config(1, 4, CostModel{}, true));
  Config cfg;
  cfg.tasks_per_node = 4;
  cfg.tile_x = 10;
  cfg.tile_y = 10;
  cfg.steps = 3;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  const auto& e = rt.forest().region(app.r_out).ispace.extents();
  for (int64_t x = cfg.radius; x < static_cast<int64_t>(e.n[0]) - cfg.radius;
       x += 3) {
    for (int64_t y = cfg.radius;
         y < static_cast<int64_t>(e.n[1]) - cfg.radius; y += 3) {
      EXPECT_NEAR(oracle.read_f64(app.r_out, app.f_out, e.linearize(x, y)),
                  expected_interior(cfg, cfg.steps, x, y), 1e-9)
          << "at (" << x << "," << y << ")";
    }
  }
}

class StencilEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(StencilEquivalence, MatchesOracle) {
  const uint32_t nodes = std::get<0>(GetParam());
  const bool spmd = std::get<1>(GetParam());
  rt::Runtime rt(exec::runtime_config(nodes, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = nodes;
  cfg.tasks_per_node = 2;
  cfg.tile_x = 8;
  cfg.tile_y = 8;
  cfg.steps = 3;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  exec::ExecConfig ecfg;
  ecfg.mode = spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit;
  PreparedRun run = exec::prepare(rt, app.program, ecfg);
  run.run();
  const uint64_t n = rt.forest().region(app.r_out).ispace.size();
  for (uint64_t p = 0; p < n; ++p) {
    ASSERT_EQ(run.engine->read_root_f64(app.r_out, app.f_out, p),
              oracle.read_f64(app.r_out, app.f_out, p))
        << "out[" << p << "]";
    ASSERT_EQ(run.engine->read_root_f64(app.r_in, app.f_in, p),
              oracle.read_f64(app.r_in, app.f_in, p))
        << "in[" << p << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, StencilEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 6u),
                       ::testing::Bool()));

TEST(Stencil, SteadyStateTrafficIsPerimeterOnly) {
  // After initialization, per-iteration data movement must be ring
  // copies only: interiors are provably private (paper §4.5). Compare
  // two runs differing only in step count; the delta is steady-state.
  auto run_steps = [](uint64_t steps) {
    rt::Runtime rt(exec::runtime_config(4, 4, CostModel{}, true));
    Config cfg;
    cfg.nodes = 4;
    cfg.tasks_per_node = 1;
    cfg.tile_x = 16;
    cfg.tile_y = 16;
    cfg.steps = steps;
    App app = build(rt, cfg);
    exec::ExecConfig ecfg;
    ecfg.mode = exec::ExecMode::kSpmd;
    PreparedRun run = exec::prepare(rt, app.program, ecfg);
    return support::count_of(run.run().metrics, "exec.bytes_moved");
  };
  const uint64_t delta = run_steps(4) - run_steps(2);
  // Per step and tile: its own ring replica (|ring| = 16^2 - 12^2 = 112
  // elements) plus up to four neighbor strips of radius * edge; all
  // perimeter-scale, never the 256-element tile interior.
  const uint64_t ring = 16 * 16 - 12 * 12;
  const uint64_t per_step_bound = 4 * (ring + 4 * 2 * 16) * 8;
  EXPECT_LE(delta / 2, per_step_bound);
  EXPECT_GT(delta, 0u);
}

TEST(Stencil, MpiBaselinesRunAndScaleFlat) {
  Config cfg;
  cfg.tasks_per_node = 4;
  cfg.tile_x = 64;
  cfg.tile_y = 64;
  cfg.steps = 4;
  cfg.ns_per_point = 5.0;
  CostModel cost = CostModel::piz_daint();
  cfg.nodes = 1;
  const sim::Time t1 = run_mpi_baseline(cfg, /*rank_per_node=*/false, cost);
  cfg.nodes = 16;
  const sim::Time t16 = run_mpi_baseline(cfg, false, cost);
  EXPECT_GT(t1, 0u);
  // Weak scaling: time grows slowly (halo + latency only).
  EXPECT_LT(t16, 2 * t1);
  const sim::Time t16_omp = run_mpi_baseline(cfg, true, cost);
  EXPECT_GT(t16_omp, 0u);
}

// Host-side growth gate for the implicit master's dependence analysis:
// the privilege tests run per issued operation must stay flat as the
// machine grows (the exhaustive pairs_scanned cost basis is what grows).
// Stencil config of the host benchmark: 11 tiles per node, 32x32 tiles,
// 4 steps, kernels off. Deterministic: the counts never depend on timing.
TEST(Stencil, ImplicitDependenceTestsPerOpStayFlat) {
  auto tested_per_op = [](uint32_t nodes) {
    CostModel cost = CostModel::piz_daint();
    cost.track_dependences = true;
    rt::Runtime rt(exec::runtime_config(nodes, 12, cost, false));
    Config cfg;
    cfg.nodes = nodes;
    cfg.tasks_per_node = 11;
    cfg.tile_x = 32;
    cfg.tile_y = 32;
    cfg.steps = 4;
    App app = build(rt, cfg);
    exec::ExecConfig ecfg;
    ecfg.cost = cost;
    ecfg.mode = exec::ExecMode::kImplicit;
    PreparedRun run = exec::prepare(rt, app.program, ecfg);
    const exec::ExecutionResult res = run.run();
    auto count = [&](const char* key) {
      return static_cast<double>(support::count_of(res.metrics, key));
    };
    const double ops = count("exec.point_tasks") +
                       count("exec.copies_issued") +
                       count("exec.copies_skipped");
    return count("rt.dep.pairs_tested") / ops;
  };
  const double at16 = tested_per_op(16);
  const double at64 = tested_per_op(64);
  EXPECT_GT(at16, 0.0);
  EXPECT_LE(at64, 1.25 * at16) << "16 nodes: " << at16
                               << " tests/op, 64 nodes: " << at64;
}

// Radius generality: the halo construction and the closed form hold for
// any star radius the tile can accommodate.
class StencilRadius : public ::testing::TestWithParam<int64_t> {};

TEST_P(StencilRadius, SpmdMatchesClosedForm) {
  const int64_t radius = GetParam();
  rt::Runtime rt(exec::runtime_config(2, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = 2;
  cfg.tasks_per_node = 2;
  cfg.tile_x = 2 * static_cast<uint64_t>(radius) + 4;
  cfg.tile_y = 2 * static_cast<uint64_t>(radius) + 4;
  cfg.radius = radius;
  cfg.steps = 2;
  App app = build(rt, cfg);
  exec::ExecConfig ecfg;
  ecfg.mode = exec::ExecMode::kSpmd;
  PreparedRun run = exec::prepare(rt, app.program, ecfg);
  run.run();
  const auto& e = rt.forest().region(app.r_out).ispace.extents();
  for (int64_t x = radius; x < static_cast<int64_t>(e.n[0]) - radius; ++x) {
    for (int64_t y = radius; y < static_cast<int64_t>(e.n[1]) - radius;
         ++y) {
      ASSERT_NEAR(
          run.engine->read_root_f64(app.r_out, app.f_out, e.linearize(x, y)),
          expected_interior(cfg, cfg.steps, x, y), 1e-9)
          << "radius " << radius << " at (" << x << "," << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, StencilRadius, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace cr::apps::stencil
