// The shallow intersections of the four apps against an all-pairs
// oracle. Each app is built at 16 nodes with its figure bench's
// geometry and control-replicated; every kIntersect statement of the
// transformed program must get exactly the (i, j) pairs whose subregions
// share an element, in (i, j) order. Stencil and MiniAero take the
// rect-keyed path (structured grids), circuit and PENNANT the
// interval-keyed one.
#include <gtest/gtest.h>

#include <vector>

#include "apps/circuit/circuit.h"
#include "apps/miniaero/miniaero.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "passes/pipeline.h"
#include "rt/intersect.h"

namespace cr::apps {
namespace {

std::vector<rt::IntersectionPair> brute_force_pairs(
    const rt::RegionForest& forest, rt::PartitionId p, rt::PartitionId q) {
  std::vector<rt::IntersectionPair> out;
  const auto& ps = forest.partition(p).subregions;
  const auto& qs = forest.partition(q).subregions;
  for (uint64_t i = 0; i < ps.size(); ++i) {
    for (uint64_t j = 0; j < qs.size(); ++j) {
      if (forest.region(ps[i]).ispace.points().overlaps(
              forest.region(qs[j]).ispace.points())) {
        out.push_back({i, j});
      }
    }
  }
  return out;
}

void check_intersections(const rt::RegionForest& forest,
                         ir::Program program) {
  passes::PipelineOptions options;
  options.num_shards = 16;
  ASSERT_TRUE(passes::control_replicate(program, options).applied);
  int statements = 0;
  ir::for_each_stmt(program.body, [&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::kIntersect) return;
    ++statements;
    SCOPED_TRACE(forest.partition(s.isect_src).name + " x " +
                 forest.partition(s.isect_dst).name);
    const auto pairs =
        rt::shallow_intersections(forest, s.isect_src, s.isect_dst);
    EXPECT_FALSE(pairs.empty());
    EXPECT_EQ(pairs, brute_force_pairs(forest, s.isect_src, s.isect_dst));
  });
  EXPECT_GT(statements, 0);
}

rt::Runtime make_runtime() {
  return rt::Runtime(
      exec::runtime_config(16, 12, exec::CostModel{}, /*real_data=*/false));
}

TEST(IntersectionOracle, Stencil16) {
  rt::Runtime rt = make_runtime();
  stencil::Config cfg;
  cfg.nodes = 16;
  cfg.tasks_per_node = 11;
  cfg.tile_x = 32;
  cfg.tile_y = 32;
  check_intersections(rt.forest(), stencil::build(rt, cfg).program);
}

TEST(IntersectionOracle, MiniAero16) {
  rt::Runtime rt = make_runtime();
  miniaero::Config cfg;
  cfg.nodes = 16;
  cfg.pieces_per_node = 11;
  cfg.cells_x_per_piece = 4;
  cfg.cells_y = 8;
  cfg.cells_z = 8;
  check_intersections(rt.forest(), miniaero::build(rt, cfg).program);
}

TEST(IntersectionOracle, Pennant16) {
  rt::Runtime rt = make_runtime();
  pennant::Config cfg;
  cfg.nodes = 16;
  cfg.pieces_per_node = 11;
  cfg.zones_x_per_piece = 24;
  cfg.zones_y = 24;
  check_intersections(rt.forest(), pennant::build(rt, cfg).program);
}

TEST(IntersectionOracle, Circuit16) {
  rt::Runtime rt = make_runtime();
  circuit::Config cfg;
  cfg.nodes = 16;
  cfg.pieces_per_node = 11;
  cfg.nodes_per_piece = 128;
  cfg.wires_per_piece = 512;
  cfg.pct_cross = 0.05;
  check_intersections(rt.forest(), circuit::build(rt, cfg).program);
}

}  // namespace
}  // namespace cr::apps
