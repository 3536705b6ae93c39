// Table 1: running times of the dynamic region intersections (paper
// §3.3/§5.5) for each application at 64 and 1024 nodes.
//
// These are REAL wall-clock measurements of this library's shallow pass
// (one flat interval index over the destination partition's children,
// keyed by intervals or, on structured grids, by bounding rects) and of
// the exact per-pair element sets, on the actual partitions each
// application builds for its figure (apps::<app>::figure_config) at
// those node counts — the same quantities the paper's Table 1 reports.
// "Shallow" runs on one node; "complete" is divided by the node count
// (it runs in parallel, one shard per node, paper §3.3). Each time is
// the minimum of 5 repetitions; single runs vary by up to 40%.
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

// Builds an app from its figure setup at `nodes` machine nodes and
// measures the intersections of its `src` x `dst` partitions; `name`
// labels the row.
template <class Config, class App>
Row run_app(const char* name, uint32_t nodes,
            Config (*figure_config)(uint32_t nodes, uint64_t steps),
            App (*build)(rt::Runtime& rt, const Config& config),
            rt::PartitionId App::*src, rt::PartitionId App::*dst) {
  rt::Runtime rt(exec::runtime_config(1, 2, exec::CostModel{}, false));
  const App app = build(rt, figure_config(nodes, /*steps=*/1));
  return measure(name, nodes, rt.forest(), app.*src, app.*dst);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cr::apps;
  // No engine runs here; an empty FlagSet still validates the command
  // line and answers with generated usage.
  cr::bench::FlagSet flags;
  if (!flags.parse(argc, argv)) return 2;
  const uint32_t big = std::min(1024u, cr::bench::max_nodes());
  std::vector<Row> rows;
  for (uint32_t nodes : {64u, big}) {
    rows.push_back(run_app("Circuit", nodes, circuit::figure_config,
                           circuit::build, &circuit::App::p_shr,
                           &circuit::App::p_gst));
    rows.push_back(run_app("MiniAero", nodes, miniaero::figure_config,
                           miniaero::build, &miniaero::App::p_bnd,
                           &miniaero::App::p_halo));
    rows.push_back(run_app("PENNANT", nodes, pennant::figure_config,
                           pennant::build, &pennant::App::p_shr,
                           &pennant::App::p_gst));
    rows.push_back(run_app("Stencil", nodes, stencil::figure_config,
                           stencil::build, &stencil::App::p_bnd,
                           &stencil::App::p_halo));
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
