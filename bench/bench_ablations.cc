// Ablations of the design choices the paper calls out (DESIGN.md A1-A5):
//   A1 copy intersection optimization (§3.3): without it, every copy
//      issues all |I|^2 subregion pairs;
//   A2 point-to-point synchronization vs plain barriers (§3.4);
//   A3 hierarchical private/ghost region trees (§4.5): flat aliasing
//      emits provably-empty copies and extra intersection tables;
//   A4 copy placement, PRE + LICM (§3.2), on a multi-writer program;
//   A5 mapping granularity (§4.2): tasks per node.
#include <cstdio>

#include "apps/circuit/circuit.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "common.h"
#include "ir/builder.h"
#include "rt/partition.h"

namespace {

using namespace cr;

// A counter of the run's registry snapshot (0 when never created).
unsigned long long count(const exec::ExecutionResult& r, const char* key) {
  return support::count_of(r.metrics, key);
}

exec::CostModel bench_cost() {
  exec::CostModel cost = exec::CostModel::piz_daint();
  cost.track_dependences = false;
  return cost;
}

double run_circuit_spmd(bench::Bench& bench, uint32_t nodes,
                        passes::PipelineOptions opt,
                        exec::ExecutionResult* out = nullptr) {
  exec::CostModel cost = bench_cost();
  rt::Runtime rt(exec::runtime_config(nodes, 12, cost, false));
  apps::circuit::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 4;
  cfg.nodes_per_piece = 96;
  cfg.wires_per_piece = 384;
  cfg.steps = 4;
  cfg.ns_per_wire = 50000;
  cfg.ns_per_node = 10000;
  auto app = apps::circuit::build(rt, cfg);
  exec::PreparedRun run = exec::prepare(
      rt, app.program, bench.config(exec::ExecMode::kSpmd, cost, opt));
  exec::ExecutionResult res = run.run();
  bench.tally(res);
  if (out != nullptr) *out = res;
  return exec::to_seconds(res.makespan_ns);
}

void ablation_intersections(bench::Bench& bench) {
  std::printf(
      "\nA1: copy intersection optimization (§3.3) — Circuit, SPMD\n");
  std::printf("%-8s %-16s %-16s %-18s %-18s\n", "nodes", "with (s)",
              "without (s)", "copies+skips with", "copies+skips w/o");
  for (uint32_t nodes : {16u, 64u, 128u}) {
    passes::PipelineOptions on, off;
    off.intersection_opt = false;
    exec::ExecutionResult r_on, r_off;
    const double t_on = run_circuit_spmd(bench, nodes, on, &r_on);
    const double t_off = run_circuit_spmd(bench, nodes, off, &r_off);
    auto copies = [](const exec::ExecutionResult& r) {
      return count(r, "exec.copies_issued") + count(r, "exec.copies_skipped");
    };
    std::printf("%-8u %-16.4f %-16.4f %-18llu %-18llu\n", nodes, t_on,
                t_off, copies(r_on), copies(r_off));
  }
}

double run_pennant_spmd(bench::Bench& bench, uint32_t nodes,
                        passes::PipelineOptions opt) {
  exec::CostModel cost = bench_cost();
  rt::Runtime rt(exec::runtime_config(nodes, 12, cost, false));
  apps::pennant::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 4;
  cfg.zones_x_per_piece = 16;
  cfg.zones_y = 16;
  cfg.steps = 6;
  cfg.ns_per_zone = 100000;
  cfg.ns_per_point = 30000;
  auto app = apps::pennant::build(rt, cfg);
  exec::PreparedRun run = exec::prepare(
      rt, app.program, bench.config(exec::ExecMode::kSpmd, cost, opt));
  const exec::ExecutionResult res = run.run();
  bench.tally(res);
  return exec::to_seconds(res.makespan_ns);
}

void ablation_sync(bench::Bench& bench) {
  std::printf("\nA2: point-to-point sync vs barriers (§3.4) — PENNANT\n");
  std::printf("%-8s %-16s %-16s\n", "nodes", "p2p (s)", "barriers (s)");
  for (uint32_t nodes : {4u, 16u, 64u}) {
    passes::PipelineOptions p2p, barrier;
    barrier.p2p_sync = false;
    std::printf("%-8u %-16.4f %-16.4f\n", nodes,
                run_pennant_spmd(bench, nodes, p2p),
                run_pennant_spmd(bench, nodes, barrier));
  }
}

void ablation_hierarchy(bench::Bench& bench) {
  std::printf(
      "\nA3: hierarchical region trees (§4.5) — Circuit, SPMD at 32 "
      "nodes\n");
  for (bool hier : {true, false}) {
    passes::PipelineOptions opt;
    opt.hierarchical = hier;
    exec::ExecutionResult res;
    const double t = run_circuit_spmd(bench, 32, opt, &res);
    std::printf(
        "  %-12s makespan %.4f s; compiler emitted %llu inner copies and "
        "%llu intersection tables (flat cannot prove the private "
        "partitions disjoint)\n",
        hier ? "hierarchical" : "flat", t,
        count(res, "passes.data-replication.inner_copies"),
        count(res, "passes.intersection-opt.tables"));
  }
}

// A4 uses a synthetic two-writer loop where naive data replication emits
// a provably dead copy per iteration.
double run_placement_program(bench::Bench& bench, bool placement,
                             exec::ExecutionResult* out = nullptr) {
  exec::CostModel cost = bench_cost();
  rt::Runtime rt(exec::runtime_config(16, 12, cost, false));
  auto& forest = rt.forest();
  auto fsa = std::make_shared<rt::FieldSpace>();
  rt::FieldId f = fsa->add_field("v", rt::FieldType::kF64, 4096);
  auto fsb = std::make_shared<rt::FieldSpace>();
  rt::FieldId g = fsb->add_field("w");
  rt::RegionId a = forest.create_region(rt::IndexSpace::dense(16 * 256),
                                        fsa, "A");
  rt::RegionId bR = forest.create_region(rt::IndexSpace::dense(16 * 256),
                                         fsb, "B");
  rt::PartitionId pa = rt::partition_equal(forest, a, 16 * 11, "pa");
  rt::PartitionId pb = rt::partition_equal(forest, bR, 16 * 11, "pb");
  rt::PartitionId qa = rt::partition_image(
      forest, a, pa,
      [](uint64_t x, std::vector<uint64_t>& out) {
        out.push_back(x);
        out.push_back((x + 7) % (16 * 256));
      },
      "qa");
  ir::ProgramBuilder b(forest, "placement");
  using P = rt::Privilege;
  ir::TaskId tw = b.task("W", {{P::kReadWrite, rt::ReduceOp::kSum, {f}}},
                         1000, 50000, nullptr);
  ir::TaskId tr = b.task("R",
                         {{P::kReadWrite, rt::ReduceOp::kSum, {g}},
                          {P::kReadOnly, rt::ReduceOp::kSum, {f}}},
                         1000, 50000, nullptr);
  b.begin_for_time(8);
  // Two sequential writers: the copy after the first is dead.
  b.index_launch(tw, 16 * 11, {ir::ProgramBuilder::arg(pa, P::kReadWrite,
                                                       {f})});
  b.index_launch(tw, 16 * 11, {ir::ProgramBuilder::arg(pa, P::kReadWrite,
                                                       {f})});
  b.index_launch(tr, 16 * 11,
                 {ir::ProgramBuilder::arg(pb, P::kReadWrite, {g}),
                  ir::ProgramBuilder::arg(qa, P::kReadOnly, {f})});
  b.end_for_time();
  ir::Program program = b.finish();
  passes::PipelineOptions opt;
  opt.copy_placement = placement;
  exec::PreparedRun run =
      exec::prepare(rt, program, bench.config(exec::ExecMode::kSpmd, cost, opt));
  exec::ExecutionResult res = run.run();
  bench.tally(res);
  if (out != nullptr) *out = res;
  return exec::to_seconds(res.makespan_ns);
}

void ablation_placement(bench::Bench& bench) {
  std::printf(
      "\nA4: copy placement PRE+LICM (§3.2) — synthetic two-writer loop, "
      "16 nodes\n");
  std::printf("%-20s %-14s %-16s %-14s\n", "", "seconds", "copies issued",
              "removed by PRE");
  for (bool placement : {true, false}) {
    exec::ExecutionResult res;
    const double t = run_placement_program(bench, placement, &res);
    // No copy-placement counters exist when the pass is off: 0 removed.
    std::printf("%-20s %-14.4f %-16llu %-14llu\n",
                placement ? "with placement" : "without placement", t,
                count(res, "exec.copies_issued"),
                count(res, "passes.copy-placement.removed"));
  }
}

void ablation_mapping(bench::Bench& bench) {
  std::printf(
      "\nA5: mapping granularity (§4.2) — Stencil at 64 nodes, tasks per "
      "node\n");
  std::printf("%-16s %-16s\n", "tasks/node", "seconds/iter");
  for (uint32_t tpn : {1u, 4u, 11u, 22u, 44u}) {
    auto total = [&](uint64_t steps) {
      exec::CostModel cost = bench_cost();
      rt::Runtime rt(exec::runtime_config(64, 12, cost, false));
      apps::stencil::Config cfg;
      cfg.nodes = 64;
      cfg.tasks_per_node = tpn;
      cfg.tile_x = 16;
      cfg.tile_y = 16;
      cfg.steps = steps;
      cfg.ns_per_point = 1.07e9 / (16 * 16) / 1.3 / tpn;
      auto app = apps::stencil::build(rt, cfg);
      exec::PreparedRun run = exec::prepare(
          rt, app.program, bench.config(exec::ExecMode::kSpmd, cost));
      const exec::ExecutionResult res = run.run();
      bench.tally(res);
      return exec::to_seconds(res.makespan_ns);
    };
    std::printf("%-16u %-16.4f\n", tpn,
                cr::bench::steady_seconds(total, 2, 6).seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cr::bench::Bench bench("ablations", argc, argv,
                          cr::bench::BenchKind::kRun);
  ablation_intersections(bench);
  ablation_sync(bench);
  ablation_hierarchy(bench);
  ablation_placement(bench);
  ablation_mapping(bench);
  return bench.finish();
}
