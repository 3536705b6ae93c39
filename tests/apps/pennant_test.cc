#include "apps/pennant/pennant.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"

namespace cr::apps::pennant {
namespace {

using exec::CostModel;

TEST(PennantMesh, Topology) {
  Mesh m = make_mesh({.zones_x = 4, .zones_y = 3, .pieces = 3});
  EXPECT_EQ(m.num_zones(), 36u);
  EXPECT_EQ(m.num_points(), 13u * 4u);
  // Zone corners are the four surrounding lattice points.
  uint64_t c[4];
  m.zone_points(m.zone_id(2, 1), c);
  EXPECT_EQ(c[0], m.point_id(2, 1));
  EXPECT_EQ(c[2], m.point_id(3, 2));
  // Strip boundary columns are shared, owned by the left piece.
  EXPECT_FALSE(m.point_col_shared(0));
  EXPECT_TRUE(m.point_col_shared(4));
  EXPECT_TRUE(m.point_col_shared(8));
  EXPECT_FALSE(m.point_col_shared(12));
  EXPECT_EQ(m.point_piece(m.point_id(4, 0)), 0u);
  EXPECT_EQ(m.point_piece(m.point_id(8, 2)), 1u);
  EXPECT_EQ(m.point_piece(m.point_id(12, 1)), 2u);
  EXPECT_EQ(m.zone_piece(m.zone_id(5, 0)), 1u);
}

TEST(Pennant, HierarchicalStructure) {
  rt::Runtime rt(exec::runtime_config(2, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = 2;
  cfg.pieces_per_node = 2;
  cfg.zones_x_per_piece = 4;
  cfg.zones_y = 4;
  App app = build(rt, cfg);
  EXPECT_FALSE(rt.forest().partitions_may_alias(app.p_pvt, app.p_gst));
  EXPECT_TRUE(rt.forest().partitions_may_alias(app.p_shr, app.p_gst));
  // Piece 0 has no ghosts; pieces 1..3 each see one column.
  EXPECT_EQ(rt.forest()
                .region(rt.forest().subregion(app.p_gst, 0))
                .ispace.size(),
            0u);
  EXPECT_EQ(rt.forest()
                .region(rt.forest().subregion(app.p_gst, 1))
                .ispace.size(),
            cfg.zones_y + 1);
}

struct OracleChecks {
  double momentum_x = 0, momentum_y = 0, total_vol = 0;
  double dt = 0;
};

OracleChecks run_oracle(const Config& cfg, App& app,
                        exec::SequentialResult& oracle) {
  OracleChecks out;
  for (uint64_t p = 0; p < app.mesh.num_points(); ++p) {
    const double m = oracle.read_f64(app.rp, app.f_pmass, p);
    out.momentum_x += m * oracle.read_f64(app.rp, app.f_pu, p);
    out.momentum_y += m * oracle.read_f64(app.rp, app.f_pv, p);
  }
  for (uint64_t z = 0; z < app.mesh.num_zones(); ++z) {
    out.total_vol += oracle.read_f64(app.rz, app.f_zvol, z);
  }
  out.dt = oracle.scalar(app.s_dt);
  (void)cfg;
  return out;
}

TEST(Pennant, OraclePhysicsSanity) {
  rt::Runtime rt(exec::runtime_config(1, 4, CostModel{}, true));
  Config cfg;
  cfg.pieces_per_node = 3;
  cfg.zones_x_per_piece = 6;
  cfg.zones_y = 6;
  cfg.steps = 5;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  OracleChecks c = run_oracle(cfg, app, oracle);
  // Corner forces sum to zero per zone: total momentum stays zero.
  EXPECT_NEAR(c.momentum_x, 0.0, 1e-9);
  EXPECT_NEAR(c.momentum_y, 0.0, 1e-9);
  // The mesh deforms but stays near its initial area.
  EXPECT_NEAR(c.total_vol, 18.0 * 6.0, 0.5);
  // dt stays positive and bounded.
  EXPECT_GT(c.dt, 0.0);
  EXPECT_LE(c.dt, cfg.dt_max);
}

class PennantEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(PennantEquivalence, MatchesOracle) {
  const uint32_t nodes = std::get<0>(GetParam());
  const bool spmd = std::get<1>(GetParam());
  rt::Runtime rt(exec::runtime_config(nodes, 4, CostModel{}, true));
  Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 2;
  cfg.zones_x_per_piece = 4;
  cfg.zones_y = 5;
  cfg.steps = 4;
  App app = build(rt, cfg);
  exec::SequentialResult oracle = exec::run_sequential(app.program);
  exec::ExecConfig ecfg;
  ecfg.mode = spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit;
  exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
  run.run();
  // The timestep evolved through the dynamic collective identically.
  ASSERT_NEAR(run.engine->scalar(app.s_dt), oracle.scalar(app.s_dt), 1e-15);
  for (uint64_t p = 0; p < app.mesh.num_points(); ++p) {
    for (rt::FieldId f : {app.f_px, app.f_py, app.f_pu, app.f_pv}) {
      ASSERT_NEAR(run.engine->read_root_f64(app.rp, f, p),
                  oracle.read_f64(app.rp, f, p), 1e-11)
          << "point field " << f << " at " << p;
    }
  }
  for (uint64_t z = 0; z < app.mesh.num_zones(); ++z) {
    for (rt::FieldId f : {app.f_zp, app.f_zvol, app.f_zr}) {
      ASSERT_NEAR(run.engine->read_root_f64(app.rz, f, z),
                  oracle.read_f64(app.rz, f, z), 1e-11)
          << "zone field " << f << " at " << z;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, PennantEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 4u), ::testing::Bool()));

TEST(Pennant, MpiBaselineBlocksOnAllreduce) {
  Config cfg;
  cfg.pieces_per_node = 2;
  cfg.zones_x_per_piece = 16;
  cfg.zones_y = 16;
  cfg.steps = 6;
  CostModel cost = CostModel::piz_daint();
  cfg.nodes = 1;
  const sim::Time t1 = run_mpi_baseline(cfg, false, cost, {});
  cfg.nodes = 32;
  const sim::Time t32 = run_mpi_baseline(cfg, false, cost, {});
  EXPECT_GT(t32, t1);  // allreduce latency appears
  // With heavy-tailed noise, the blocking collective pays the max
  // across all ranks nearly every cycle.
  const sim::Time t32_j =
      run_mpi_baseline(cfg, false, cost, Noise{0.01, 0.5});
  EXPECT_GT(t32_j, t32);
}

}  // namespace
}  // namespace cr::apps::pennant
