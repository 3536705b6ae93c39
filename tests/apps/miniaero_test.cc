#include "apps/miniaero/miniaero.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"

namespace cr::apps::miniaero {
namespace {

using exec::CostModel;

TEST(MiniAero, BuildShapes) {
  rt::Runtime rt(exec::runtime_config(2, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = 2;
  cfg.pieces_per_node = 2;
  cfg.cells_x_per_piece = 4;
  cfg.cells_y = 5;
  cfg.cells_z = 3;
  App app = build(rt, cfg);
  EXPECT_EQ(app.pieces, 4u);
  const auto& forest = rt.forest();
  EXPECT_EQ(forest.region(app.rc).ispace.size(), 16u * 5u * 3u);
  EXPECT_FALSE(forest.partitions_may_alias(app.p_int, app.p_halo));
  EXPECT_TRUE(forest.partitions_may_alias(app.p_bnd, app.p_halo));
  // Interior slab: 2 of 4 x-layers per piece.
  EXPECT_EQ(forest.region(forest.subregion(app.p_int, 0)).ispace.size(),
            2u * 5u * 3u);
  // Middle pieces see two neighbor face layers.
  EXPECT_EQ(forest.region(forest.subregion(app.p_halo, 1)).ispace.size(),
            2u * 5u * 3u);
  EXPECT_EQ(forest.region(forest.subregion(app.p_halo, 0)).ispace.size(),
            1u * 5u * 3u);
}

// A uniform flow state is a fixed point of the flux scheme: fluxes
// cancel exactly, so the solution must stay bitwise uniform.
TEST(MiniAero, UniformStateIsFixedPoint) {
  rt::Runtime rt(exec::runtime_config(1, 4, CostModel{}, true));
  Config cfg;
  cfg.pieces_per_node = 2;
  cfg.cells_x_per_piece = 4;
  cfg.cells_y = 4;
  cfg.cells_z = 4;
  cfg.steps = 3;
  App app = build(rt, cfg);
  // Overwrite the init kernel with a uniform state.
  for (auto& t : app.program.tasks) {
    if (t.name != "init") continue;
    const auto f_sol = app.f_sol;
    const auto f_stage = app.f_stage;
    t.kernel = [f_sol, f_stage](ir::TaskContext& ctx) {
      ctx.domain().points().for_each_point([&](uint64_t id) {
        const double vals[5] = {1.2, 0.3, -0.1, 0.2, 2.5};
        for (size_t k = 0; k < 5; ++k) {
          ctx.write_f64(0, f_sol[k], id, vals[k]);
          ctx.write_f64(0, f_stage[k], id, vals[k]);
        }
      });
    };
  }
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  const uint64_t n = rt.forest().region(app.rc).ispace.size();
  for (uint64_t c = 0; c < n; ++c) {
    EXPECT_NEAR(oracle.read_f64(app.rc, app.f_sol[0], c), 1.2, 1e-12);
    EXPECT_NEAR(oracle.read_f64(app.rc, app.f_sol[1], c), 0.3, 1e-12);
    EXPECT_NEAR(oracle.read_f64(app.rc, app.f_sol[4], c), 2.5, 1e-12);
  }
}

// Mass is conserved up to wall fluxes; with a symmetric state and small
// dt the total must stay bounded and positive.
TEST(MiniAero, DensityStaysPositiveAndBounded) {
  rt::Runtime rt(exec::runtime_config(1, 4, CostModel{}, true));
  Config cfg;
  cfg.pieces_per_node = 2;
  cfg.cells_x_per_piece = 4;
  cfg.cells_y = 4;
  cfg.cells_z = 4;
  cfg.steps = 4;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  const uint64_t n = rt.forest().region(app.rc).ispace.size();
  for (uint64_t c = 0; c < n; ++c) {
    const double rho = oracle.read_f64(app.rc, app.f_sol[0], c);
    EXPECT_GT(rho, 0.5);
    EXPECT_LT(rho, 2.0);
  }
}

class MiniAeroEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(MiniAeroEquivalence, MatchesOracle) {
  const uint32_t nodes = std::get<0>(GetParam());
  const bool spmd = std::get<1>(GetParam());
  rt::Runtime rt(exec::runtime_config(nodes, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 2;
  cfg.cells_x_per_piece = 3;
  cfg.cells_y = 4;
  cfg.cells_z = 3;
  cfg.steps = 2;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  exec::ExecConfig ecfg;
  ecfg.mode = spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit;
  exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
  run.run();
  const uint64_t n = rt.forest().region(app.rc).ispace.size();
  for (uint64_t c = 0; c < n; ++c) {
    for (size_t k = 0; k < 5; ++k) {
      ASSERT_NEAR(run.engine->read_root_f64(app.rc, app.f_sol[k], c),
                  oracle.read_f64(app.rc, app.f_sol[k], c), 1e-12)
          << "var " << k << " cell " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, MiniAeroEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 4u), ::testing::Bool()));

TEST(MiniAero, BaselineConfigurationsDiffer) {
  Config cfg;
  cfg.pieces_per_node = 2;
  cfg.cells_x_per_piece = 8;
  cfg.cells_y = 8;
  cfg.cells_z = 8;
  cfg.steps = 3;
  CostModel cost = CostModel::piz_daint();
  cfg.nodes = 4;
  const sim::Time t_core = run_mpi_baseline(cfg, false, cost, {});
  const sim::Time t_node = run_mpi_baseline(cfg, true, cost, {});
  EXPECT_GT(t_core, 0u);
  EXPECT_GT(t_node, 0u);
  EXPECT_NE(t_core, t_node);
}

}  // namespace
}  // namespace cr::apps::miniaero
