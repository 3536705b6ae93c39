// Golden region forests for the four apps.
//
// Each case builds one app and writes, for every partition, its name and
// static flags, and for every region its name, size, interval count and
// a hash of its intervals. The text is compared against goldens under
// tests/apps/golden/, so any change in the point sets an app colors —
// a different partitioning operator, a different coloring of the same
// pieces — shows up here as a diff naming the region. The 16-node cases
// use the figure benches' geometry; the uneven cases use odd, non-square
// pieces and tiles so run boundaries fall off any power of two. If a
// change is intended, regenerate with
//
//   CR_UPDATE_GOLDEN=1 ./tests/test_apps --gtest_filter='RegionForestGolden.*'
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/circuit/circuit.h"
#include "apps/miniaero/miniaero.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "support/hash.h"

namespace cr::apps {
namespace {

#ifndef CR_TEST_SRCDIR
#error "CR_TEST_SRCDIR must point at the tests/ source directory"
#endif

rt::Runtime make_runtime(uint32_t nodes) {
  return rt::Runtime(
      exec::runtime_config(nodes, 12, exec::CostModel{}, /*real_data=*/false));
}

std::string dump_forest(const rt::RegionForest& forest) {
  std::ostringstream out;
  char line[256];
  for (size_t p = 0; p < forest.num_partitions(); ++p) {
    const rt::PartitionNode& pn =
        forest.partition(static_cast<rt::PartitionId>(p));
    std::snprintf(line, sizeof(line), "partition %s of %s: %zu colors%s%s\n",
                  pn.name.c_str(), forest.region(pn.parent).name.c_str(),
                  pn.subregions.size(), pn.disjoint ? " disjoint" : "",
                  pn.complete ? " complete" : "");
    out << line;
  }
  for (size_t r = 0; r < forest.num_regions(); ++r) {
    const rt::RegionNode& rn = forest.region(static_cast<rt::RegionId>(r));
    const auto& ivs = rn.ispace.points().intervals();
    uint64_t h = support::hash_mix(ivs.size());
    for (const support::Interval& iv : ivs) {
      h = support::hash_mix(h ^ iv.lo);
      h = support::hash_mix(h ^ iv.hi);
    }
    std::snprintf(line, sizeof(line),
                  "region %s: size=%" PRIu64 " intervals=%zu hash=%016" PRIx64
                  "\n",
                  rn.name.c_str(), rn.ispace.size(), ivs.size(), h);
    out << line;
  }
  return out.str();
}

void check_golden(const std::string& name, const std::string& text) {
  const std::string path =
      std::string(CR_TEST_SRCDIR) + "/apps/golden/" + name + ".forest";
  if (std::getenv("CR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << text;
    return;
  }
  std::ifstream in(path);
  std::ostringstream want;
  want << in.rdbuf();
  ASSERT_FALSE(want.str().empty())
      << "missing golden " << path << " — regenerate with CR_UPDATE_GOLDEN=1";
  // Compare line by line so a failure names the first region that moved.
  std::istringstream got_lines(text), want_lines(want.str());
  std::string got_line, want_line;
  int n = 0;
  while (std::getline(want_lines, want_line)) {
    ++n;
    ASSERT_TRUE(std::getline(got_lines, got_line))
        << name << ": forest ends before golden line " << n << ": "
        << want_line;
    ASSERT_EQ(got_line, want_line) << name << ": line " << n << " diverged";
  }
  EXPECT_FALSE(std::getline(got_lines, got_line))
      << name << ": forest has extra line " << got_line;
}

// Figure 6's geometry: 11 tiles of 32x32 per node, radius 2.
TEST(RegionForestGolden, Stencil16) {
  rt::Runtime rt = make_runtime(16);
  stencil::Config cfg;
  cfg.nodes = 16;
  cfg.tasks_per_node = 11;
  cfg.tile_x = 32;
  cfg.tile_y = 32;
  stencil::build(rt, cfg);
  check_golden("stencil_16", dump_forest(rt.forest()));
}

TEST(RegionForestGolden, StencilUneven) {
  rt::Runtime rt = make_runtime(5);
  stencil::Config cfg;
  cfg.nodes = 5;
  cfg.tasks_per_node = 3;  // 15 tiles: 3 x 5
  cfg.tile_x = 9;
  cfg.tile_y = 13;
  cfg.radius = 3;
  stencil::build(rt, cfg);
  check_golden("stencil_uneven", dump_forest(rt.forest()));
}

// Figure 7's geometry: 11 slabs of 4x8x8 cells per node.
TEST(RegionForestGolden, MiniAero16) {
  rt::Runtime rt = make_runtime(16);
  miniaero::Config cfg;
  cfg.nodes = 16;
  cfg.pieces_per_node = 11;
  cfg.cells_x_per_piece = 4;
  cfg.cells_y = 8;
  cfg.cells_z = 8;
  miniaero::build(rt, cfg);
  check_golden("miniaero_16", dump_forest(rt.forest()));
}

TEST(RegionForestGolden, MiniAeroUneven) {
  rt::Runtime rt = make_runtime(3);
  miniaero::Config cfg;
  cfg.nodes = 3;
  cfg.pieces_per_node = 3;
  cfg.cells_x_per_piece = 5;
  cfg.cells_y = 3;
  cfg.cells_z = 7;
  miniaero::build(rt, cfg);
  check_golden("miniaero_uneven", dump_forest(rt.forest()));
}

// Figure 8's geometry: 11 pieces of 24x24 zones per node.
TEST(RegionForestGolden, Pennant16) {
  rt::Runtime rt = make_runtime(16);
  pennant::Config cfg;
  cfg.nodes = 16;
  cfg.pieces_per_node = 11;
  cfg.zones_x_per_piece = 24;
  cfg.zones_y = 24;
  pennant::build(rt, cfg);
  check_golden("pennant_16", dump_forest(rt.forest()));
}

TEST(RegionForestGolden, PennantUneven) {
  rt::Runtime rt = make_runtime(3);
  pennant::Config cfg;
  cfg.nodes = 3;
  cfg.pieces_per_node = 3;
  cfg.zones_x_per_piece = 5;
  cfg.zones_y = 7;
  pennant::build(rt, cfg);
  check_golden("pennant_uneven", dump_forest(rt.forest()));
}

// Figure 9's geometry: 11 pieces per node, each of 128 circuit nodes and
// 512 wires.
TEST(RegionForestGolden, Circuit16) {
  rt::Runtime rt = make_runtime(16);
  circuit::Config cfg;
  cfg.nodes = 16;
  cfg.pieces_per_node = 11;
  cfg.nodes_per_piece = 128;
  cfg.wires_per_piece = 512;
  cfg.pct_cross = 0.05;
  cfg.window = 2;
  circuit::build(rt, cfg);
  check_golden("circuit_16", dump_forest(rt.forest()));
}

TEST(RegionForestGolden, CircuitUneven) {
  rt::Runtime rt = make_runtime(3);
  circuit::Config cfg;
  cfg.nodes = 3;
  cfg.pieces_per_node = 3;
  cfg.nodes_per_piece = 37;
  cfg.wires_per_piece = 101;
  cfg.pct_cross = 0.3;
  cfg.window = 3;
  circuit::build(rt, cfg);
  check_golden("circuit_uneven", dump_forest(rt.forest()));
}

}  // namespace
}  // namespace cr::apps
