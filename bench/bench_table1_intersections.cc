// Table 1: running times of the dynamic region intersections (paper
// §3.3/§5.5) for each application at 64 and 1024 nodes.
//
// These are REAL wall-clock measurements of this library's shallow pass
// (one flat interval index over the destination partition's children,
// keyed by intervals or, on structured grids, by bounding rects) and of
// the exact per-pair element sets, on the actual partitions each
// application builds at those node counts — the same quantities the
// paper's Table 1 reports. "Shallow" runs on one node; "complete" is
// divided by the node count (it runs in parallel, one shard per node,
// paper §3.3). Each time is the minimum of 5 repetitions; single runs
// vary by up to 40%.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "apps/circuit/circuit.h"
#include "common.h"
#include "apps/miniaero/miniaero.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "rt/intersect.h"

namespace {

using namespace cr;

struct Row {
  const char* app;
  uint32_t nodes;
  size_t pairs;
  double shallow_ms;
  double complete_ms;  // per node (parallel phase)
};

constexpr int kRepetitions = 5;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Measure the two intersection phases for one (src, dst) partition pair.
Row measure(const char* app, uint32_t nodes, const rt::RegionForest& forest,
            rt::PartitionId src, rt::PartitionId dst) {
  std::vector<rt::IntersectionPair> pairs;
  double shallow = 1e300, complete = 1e300;
  uint64_t elems = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    pairs = rt::shallow_intersections(forest, src, dst);
    shallow = std::min(shallow, ms_since(t0));

    t0 = std::chrono::steady_clock::now();
    elems = 0;
    for (const auto& pr : pairs) {
      auto set = rt::complete_intersection(
          forest, forest.subregion(src, pr.src_color),
          forest.subregion(dst, pr.dst_color));
      elems += set.size();
    }
    complete = std::min(complete, ms_since(t0) / nodes);
  }
  std::fprintf(stderr, "  %s @%u: %zu pairs, %llu shared elements\n", app,
               nodes, pairs.size(), (unsigned long long)elems);
  return Row{app, nodes, pairs.size(), shallow, complete};
}

Row run_circuit(uint32_t nodes) {
  exec::CostModel cost;
  rt::Runtime rt(exec::runtime_config(1, 2, cost, false));
  apps::circuit::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 11;
  cfg.nodes_per_piece = 128;
  cfg.wires_per_piece = 512;
  cfg.pct_cross = 0.05;
  auto app = apps::circuit::build(rt, cfg);
  return measure("Circuit", nodes, rt.forest(), app.p_shr, app.p_gst);
}

Row run_miniaero(uint32_t nodes) {
  exec::CostModel cost;
  rt::Runtime rt(exec::runtime_config(1, 2, cost, false));
  apps::miniaero::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 11;
  cfg.cells_x_per_piece = 4;
  cfg.cells_y = 8;
  cfg.cells_z = 8;
  auto app = apps::miniaero::build(rt, cfg);
  return measure("MiniAero", nodes, rt.forest(), app.p_bnd, app.p_halo);
}

Row run_pennant(uint32_t nodes) {
  exec::CostModel cost;
  rt::Runtime rt(exec::runtime_config(1, 2, cost, false));
  apps::pennant::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 11;
  cfg.zones_x_per_piece = 24;
  cfg.zones_y = 24;
  auto app = apps::pennant::build(rt, cfg);
  return measure("PENNANT", nodes, rt.forest(), app.p_shr, app.p_gst);
}

Row run_stencil(uint32_t nodes) {
  exec::CostModel cost;
  rt::Runtime rt(exec::runtime_config(1, 2, cost, false));
  apps::stencil::Config cfg;
  cfg.nodes = nodes;
  cfg.tasks_per_node = 11;
  cfg.tile_x = 32;
  cfg.tile_y = 32;
  auto app = apps::stencil::build(rt, cfg);
  return measure("Stencil", nodes, rt.forest(), app.p_bnd, app.p_halo);
}

}  // namespace

int main(int argc, char** argv) {
  // No engine runs here; an empty FlagSet still validates the command
  // line and answers with generated usage.
  cr::bench::FlagSet flags;
  if (!flags.parse(argc, argv)) return 2;
  const uint32_t big = std::min(1024u, cr::bench::max_nodes());
  std::vector<Row> rows;
  for (uint32_t nodes : {64u, big}) {
    rows.push_back(run_circuit(nodes));
    rows.push_back(run_miniaero(nodes));
    rows.push_back(run_pennant(nodes));
    rows.push_back(run_stencil(nodes));
  }
  std::printf(
      "Table 1: region intersection running times (measured wall clock, "
      "min of %d)\n",
      kRepetitions);
  std::printf("%-12s %-8s %-10s %-14s %-14s\n", "Application", "Nodes",
              "Pairs", "Shallow (ms)", "Complete (ms)");
  for (const Row& r : rows) {
    std::printf("%-12s %-8u %-10zu %-14.3f %-14.4f\n", r.app, r.nodes,
                r.pairs, r.shallow_ms, r.complete_ms);
  }
  return 0;
}
