// Microbenchmarks (google-benchmark) for the runtime substrates: interval
// set algebra, the shallow-intersection index, the DES event loop, the
// dynamic dependence analysis, and the random draws behind the circuit
// graph. These are the real in-process costs behind the virtual-time
// constants documented in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common.h"

#include "apps/circuit/circuit.h"
#include "rt/dependence.h"
#include "rt/intersect.h"
#include "rt/partition.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "support/interval_set.h"
#include "support/rng.h"

namespace {

using namespace cr;

support::IntervalSet random_set(support::Rng& rng, uint64_t universe,
                                int chunks) {
  support::IntervalSet s;
  for (int i = 0; i < chunks; ++i) {
    const uint64_t lo = rng.next_below(universe);
    s.add(lo, lo + 1 + rng.next_below(universe / chunks + 1));
  }
  return s;
}

void BM_IntervalSetIntersect(benchmark::State& state) {
  support::Rng rng(1);
  const auto a = random_set(rng, 1u << 20, static_cast<int>(state.range(0)));
  const auto b = random_set(rng, 1u << 20, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.set_intersect(b));
  }
  state.SetItemsProcessed(state.iterations() *
                          (a.interval_count() + b.interval_count()));
}
BENCHMARK(BM_IntervalSetIntersect)->Arg(16)->Arg(256)->Arg(4096);

void BM_IntervalSetUnion(benchmark::State& state) {
  support::Rng rng(2);
  const auto a = random_set(rng, 1u << 20, static_cast<int>(state.range(0)));
  const auto b = random_set(rng, 1u << 20, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.set_union(b));
  }
}
BENCHMARK(BM_IntervalSetUnion)->Arg(16)->Arg(256)->Arg(4096);

void BM_IntervalIndexQuery(benchmark::State& state) {
  support::Rng rng(3);
  std::vector<rt::IntervalIndex::Entry> entries;
  for (int64_t i = 0; i < state.range(0); ++i) {
    const uint64_t lo = rng.next_below(1u << 20);
    entries.push_back({{lo, lo + 64}, static_cast<uint64_t>(i)});
  }
  rt::IntervalIndex index(std::move(entries));
  std::vector<uint64_t> hits;
  for (auto _ : state) {
    hits.clear();
    const uint64_t lo = rng.next_below(1u << 20);
    index.query({lo, lo + 256}, [&](uint64_t c) { hits.push_back(c); });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_IntervalIndexQuery)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_ShallowIntersectionsHalo(benchmark::State& state) {
  // 1D halo pattern: O(N) pairs out of N^2 candidates (interval keys).
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  rt::RegionForest forest;
  auto fs = std::make_shared<rt::FieldSpace>();
  fs->add_field("v");
  rt::RegionId r = forest.create_region(rt::IndexSpace::dense(n * 64), fs);
  rt::PartitionId p = rt::partition_equal(forest, r, n);
  rt::PartitionId q = rt::partition_image(
      forest, r, p, [n](uint64_t x, std::vector<uint64_t>& out) {
        out.push_back(x);
        if (x >= 8) out.push_back(x - 8);
        if (x + 8 < n * 64) out.push_back(x + 8);
      });
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::shallow_intersections(forest, p, q));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShallowIntersectionsHalo)->Arg(64)->Arg(1024)->Arg(8192);

void BM_ShallowIntersectionsTiles2D(benchmark::State& state) {
  // 2D tiles of 16x16 against their radius-1 halos (rect keys): Arg
  // tiles along each axis, so Arg^2 tiles with at most 9 pairs each.
  const uint64_t t = static_cast<uint64_t>(state.range(0));
  const int64_t side = static_cast<int64_t>(16 * t);
  rt::RegionForest forest;
  auto fs = std::make_shared<rt::FieldSpace>();
  fs->add_field("v");
  const rt::GridExtents e = rt::GridExtents::d2(16 * t, 16 * t);
  rt::RegionId r = forest.create_region(rt::IndexSpace::grid(e), fs);
  rt::PartitionId p = rt::partition_grid(forest, r, {t, t, 1});
  rt::PartitionId q = rt::partition_image(
      forest, r, p, [&](uint64_t id, std::vector<uint64_t>& out) {
        int64_t x, y, z;
        e.delinearize(id, x, y, z);
        for (int64_t dx = -1; dx <= 1; ++dx) {
          for (int64_t dy = -1; dy <= 1; ++dy) {
            if (x + dx >= 0 && x + dx < side && y + dy >= 0 &&
                y + dy < side) {
              out.push_back(e.linearize(x + dx, y + dy));
            }
          }
        }
      });
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::shallow_intersections(forest, p, q));
  }
  state.SetItemsProcessed(state.iterations() * t * t);
}
BENCHMARK(BM_ShallowIntersectionsTiles2D)->Arg(8)->Arg(32)->Arg(64);

// The event core end to end: wiring during an unroll, then the drain.
// Arg 0 is a serial chain of 10k spawns on one core. Arg 1 is a DAG of
// 20k tasks shaped like a control-replicated app: each merges 1-3
// earlier tasks' deliveries, runs on one of 4 x 12 cores and sends its
// result to a peer node. `event_time` is wall time per processed queue
// entry.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  const bool dag = state.range(0) == 1;
  constexpr int kTasks = 20000;  // DAG tasks
  constexpr uint32_t kNodes = 4, kCores = 12;
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Machine machine(sim, {.nodes = kNodes, .cores_per_node = kCores});
    sim::Network net(sim, kNodes, {});
    if (!dag) {
      sim::Event prev;
      for (int i = 0; i < 10000; ++i) {
        prev = machine.proc(0, 0).spawn(prev, 100);
      }
    } else {
      support::Rng rng(7);
      std::vector<sim::Event> delivered;
      delivered.reserve(kTasks);
      std::vector<sim::Event> pre;
      for (int i = 0; i < kTasks; ++i) {
        pre.clear();
        const uint64_t fan_in = 1 + rng.next_below(3);
        for (uint64_t k = 0; k < fan_in && !delivered.empty(); ++k) {
          pre.push_back(delivered[delivered.size() - 1 -
                                  rng.next_below(std::min<uint64_t>(
                                      delivered.size(), 64))]);
        }
        const uint32_t node = i % kNodes;
        const sim::Event done =
            machine.proc(node, (i / kNodes) % kCores)
                .spawn(sim.merge(pre), 1000 + rng.next_below(1000));
        delivered.push_back(net.send(node, (node + 1) % kNodes, 64, done));
      }
    }
    benchmark::DoNotOptimize(sim.run());
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["event_time"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(0)->Arg(1);

void BM_DependenceAnalysis(benchmark::State& state) {
  rt::RegionForest forest;
  auto fs = std::make_shared<rt::FieldSpace>();
  const rt::FieldId f = fs->add_field("v");
  rt::RegionId r = forest.create_region(rt::IndexSpace::dense(1u << 16), fs);
  rt::PartitionId p =
      rt::partition_equal(forest, r, static_cast<uint64_t>(state.range(0)));
  sim::Simulator sim;
  uint64_t op = 0;
  for (auto _ : state) {
    rt::DependenceTracker deps(forest);
    for (uint64_t c = 0; c < forest.partition(p).subregions.size(); ++c) {
      const sim::Event e = sim.make_event();
      rt::Requirement req{forest.subregion(p, c),
                          rt::Privilege::kReadWrite,
                          rt::ReduceOp::kSum,
                          {f}};
      benchmark::DoNotOptimize(deps.record(++op, req, e));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DependenceAnalysis)->Arg(16)->Arg(64)->Arg(256);

// Bounded draws: 24 takes next_below's rejection path, 128 its
// power-of-two path.
void BM_RngNextBelow(benchmark::State& state) {
  const uint64_t bound = static_cast<uint64_t>(state.range(0));
  support::Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(bound));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextBelow)->Arg(24)->Arg(128);

// The circuit graph of Figure 9 at the given machine node count (11
// pieces of 128 nodes and 512 wires per node, 5% cross wires).
void BM_CircuitGenerateGraph(benchmark::State& state) {
  const apps::circuit::GraphConfig gc =
      apps::circuit::graph_config(apps::circuit::figure_config(
          static_cast<uint32_t>(state.range(0)), /*steps=*/1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::circuit::generate_graph(gc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(gc.pieces * gc.wires_per_piece));
}
BENCHMARK(BM_CircuitGenerateGraph)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  cr::bench::FlagSet flags;            // rejects leftovers with usage
  if (!flags.parse(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
