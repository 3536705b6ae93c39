// Figure 6: weak scaling for Stencil (PRK 2D star stencil, radius 2).
//
// Paper configuration: 40k^2 grid points per node, 12-core nodes; series
// Regent (with CR), Regent (w/o CR), MPI, MPI+OpenMP; MPI references run
// only at node counts with square process grids (even powers of two).
//
// The simulated problem is geometrically scaled down (11 tiles of 32^2
// per node, one tile per compute core) with per-point cost and per-halo-
// element width calibrated so that per-node iteration time and the
// communication/computation ratio match the paper's problem; throughput
// is reported in *paper-scale* points per second per node. See
// EXPERIMENTS.md for the calibration table.
#include <chrono>
#include <cstdio>

#include "apps/stencil/stencil.h"
#include "common.h"
#include "mapper_matrix.h"

namespace {

using namespace cr;
using apps::stencil::Config;

// Paper problem: 40000^2 points/node at ~1500e6 points/s/node.
constexpr double kPaperPointsPerNode = 40000.0 * 40000.0;
constexpr uint32_t kTilesPerNode = 11;  // one per compute core
constexpr uint64_t kTile = 32;

Config make_config(uint32_t nodes, uint64_t steps) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.tasks_per_node = kTilesPerNode;
  cfg.tile_x = kTile;
  cfg.tile_y = kTile;
  cfg.steps = steps;
  // Calibration: per-node per-iteration compute ~= 1.07 s (the paper's
  // single-node rate), spread over the scaled points; stencil + the two
  // increment launches weigh ~1.3x the base per-point cost.
  cfg.ns_per_point = 1.067e9 / static_cast<double>(kTile * kTile) / 1.15;
  // Halo width: the paper's node boundary is ~40000 x 2(radius) x 2 dirs
  // x 8 B ~= 2.6 MB/iter; our scaled ring moves ~5.5k elements per node.
  cfg.halo_virtual_bytes = 480;
  return cfg;
}

double run_engine(bench::Bench& bench, uint32_t nodes, bool spmd) {
  auto total = [&](uint64_t steps) {
    exec::CostModel cost = exec::CostModel::piz_daint();
    cost.track_dependences = false;
    // Master-side per-point-task cost without CR: dynamic dependence +
    // physical analysis + remote mapping, see EXPERIMENTS.md.
    cost.implicit_launch_ns = 2.0e6;
    Config cfg = make_config(nodes, steps);
    rt::Runtime rt(exec::runtime_config(nodes, 12, cost, false));
    bench::TraceScope trace(bench, rt, spmd ? "stencil-cr" : "stencil-nocr",
                            nodes);
    apps::stencil::App app = apps::stencil::build(rt, cfg);
    for (auto& t : app.program.tasks) t.kernel = nullptr;
    exec::PreparedRun run = exec::prepare(
        rt, app.program,
        bench.config(spmd ? exec::ExecMode::kSpmd : exec::ExecMode::kImplicit,
                     cost));
    const exec::ExecutionResult res = run.run();
    bench.record(res);
    return exec::to_seconds(res.makespan_ns);
  };
  return bench::steady_seconds(total, 2, 6);
}

// --selftime replay study: the implicit master's dynamic dependence
// analysis with the full tracker enabled, indexed vs trace capture &
// replay on top of the index. Virtual time is charged on pairs_scanned
// either way, so the makespans must be bit-identical; replay removes the
// steady-state exact conflict tests (pairs_tested) entirely. Returns
// false if any makespan diverged.
bool replay_study(bench::Bench& bench, exec::ScalingReport& analysis_report) {
  if (!bench.options().selftime) return true;
  const uint32_t nodes = cr::bench::node_counts().back();
  struct StudyRun {
    exec::ExecutionResult res;
    double host_seconds = 0;
  };
  auto run_one = [&](bool replay, uint64_t steps) {
    exec::CostModel cost = exec::CostModel::piz_daint();
    cost.track_dependences = true;
    Config cfg = make_config(nodes, steps);
    rt::Runtime rt(exec::runtime_config(nodes, 12, cost, false));
    apps::stencil::App app = apps::stencil::build(rt, cfg);
    for (auto& t : app.program.tasks) t.kernel = nullptr;
    exec::ExecConfig ecfg = bench.config(exec::ExecMode::kImplicit, cost);
    // The study compares replay against plain indexing, so each leg
    // pins the flag regardless of --replay on the command line.
    ecfg.trace_replay = replay;
    exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
    const auto begin = std::chrono::steady_clock::now();
    StudyRun out{run.run(), 0};
    out.host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    return out;
  };

  // Two step counts per leg: the per-step difference isolates the
  // steady state (capture warmup and the init launches cancel out),
  // which is where iterative apps spend their time and where replay
  // should drive pairs_tested to zero.
  const uint64_t lo = 6, hi = 22;
  std::fprintf(stderr, "  [replay study] %u nodes...\n", nodes);
  StudyRun idx_lo = run_one(false, lo);
  StudyRun idx_hi = run_one(false, hi);
  StudyRun rep_lo = run_one(true, lo);
  StudyRun rep_hi = run_one(true, hi);
  const bool same = idx_lo.res.makespan_ns == rep_lo.res.makespan_ns &&
                    idx_hi.res.makespan_ns == rep_hi.res.makespan_ns;
  auto steady = [&](const StudyRun& l, const StudyRun& h) {
    return static_cast<double>(h.res.analysis.dep_pairs_tested -
                               l.res.analysis.dep_pairs_tested) /
           static_cast<double>(hi - lo);
  };
  const double idx_rate = steady(idx_lo, idx_hi);
  const double rep_rate = steady(rep_lo, rep_hi);
  auto metric = [](const StudyRun& r, const char* key) {
    auto it = r.res.metrics.find(key);
    return it == r.res.metrics.end() ? 0.0 : it->second;
  };
  std::printf(
      "replay study [implicit stencil, %u nodes, steps %llu vs %llu]\n"
      "  steady-state pairs_tested/step: indexed %.0f, replay %.0f",
      nodes, static_cast<unsigned long long>(lo),
      static_cast<unsigned long long>(hi), idx_rate, rep_rate);
  if (rep_rate > 0) {
    std::printf(" (%.1fx reduction)\n", idx_rate / rep_rate);
  } else {
    std::printf(" (fully replayed)\n");
  }
  std::printf(
      "  host seconds (%llu steps): indexed %.3f, replay %.3f\n"
      "  replay counters: captures=%.0f replays=%.0f invalidations=%.0f "
      "pairs_skipped=%.0f\n"
      "  makespans %s\n\n",
      static_cast<unsigned long long>(hi), idx_hi.host_seconds,
      rep_hi.host_seconds, metric(rep_hi, "exec.replay.captures"),
      metric(rep_hi, "exec.replay.replays"),
      metric(rep_hi, "exec.replay.invalidations"),
      metric(rep_hi, "exec.replay.pairs_skipped"),
      same ? "identical" : "DIFFER");
  for (const auto* r : {&idx_hi, &rep_hi}) {
    exec::ScalingSeries s;
    s.name = r == &idx_hi ? "replay-study indexed" : "replay-study replay";
    exec::ScalingPoint pt;
    pt.nodes = nodes;
    pt.seconds = exec::to_seconds(r->res.makespan_ns);
    pt.work_per_node = kPaperPointsPerNode;
    pt.iterations = hi;
    pt.has_analysis = true;
    pt.analysis = r->res.analysis;
    pt.analysis.host_seconds = r->host_seconds;
    s.points.push_back(pt);
    analysis_report.series.push_back(std::move(s));
  }
  if (!same) {
    std::fprintf(stderr, "FAIL: replay study makespans diverged\n");
  }
  return same;
}

// --mapper-matrix: the heterogeneous scenario with the cores
// oversubscribed (4 tiles per compute core) so placement quality shows
// up as queueing rather than vanishing behind idle cores.
int run_matrix(bench::Bench& bench) {
  return bench::run_mapper_matrix(
      bench, /*nodes=*/8, [&](const bench::MatrixCell& cell) {
        exec::CostModel cost = exec::CostModel::piz_daint();
        cost.track_dependences = false;
        Config cfg = make_config(cell.nodes, /*steps=*/3);
        cfg.tasks_per_node = 4 * kTilesPerNode;
        rt::RuntimeConfig rc = exec::runtime_config(cell.nodes, 12, cost,
                                                    /*real_data=*/false);
        cell.apply(rc);
        rt::Runtime rt(rc);
        apps::stencil::App app = apps::stencil::build(rt, cfg);
        for (auto& t : app.program.tasks) t.kernel = nullptr;
        exec::ExecConfig ecfg = bench.config(exec::ExecMode::kSpmd, cost);
        ecfg.mapper = cell.mapper;
        ecfg.check = true;
        exec::PreparedRun run = exec::prepare(rt, app.program, ecfg);
        return run.run();
      });
}

double run_mpi(uint32_t nodes, bool openmp) {
  exec::CostModel cost = exec::CostModel::piz_daint();
  auto total = [&](uint64_t steps) {
    Config cfg = make_config(nodes, steps);
    return exec::to_seconds(
        apps::stencil::run_mpi_baseline(cfg, openmp, cost));
  };
  return bench::steady_seconds(total, 2, 6);
}

}  // namespace

int main(int argc, char** argv) {
  cr::bench::Bench bench("stencil", argc, argv);
  if (bench.options().mapper_matrix) return run_matrix(bench);
  std::vector<cr::bench::SeriesSpec> specs = {
      {"Regent (with CR)",
       [&](uint32_t n) { return run_engine(bench, n, true); }},
      {"Regent (w/o CR)",
       [&](uint32_t n) { return run_engine(bench, n, false); }},
      {"MPI", [](uint32_t n) { return run_mpi(n, false); },
       cr::bench::is_square_power},
      {"MPI+OpenMP", [](uint32_t n) { return run_mpi(n, true); },
       cr::bench::is_square_power},
  };
  auto report = bench.sweep(
      "Figure 6: Stencil weak scaling (40k^2 points/node)",
      "10^6 points/s per node", 1e6, kPaperPointsPerNode, 1.0, specs);
  std::printf("%s\n", report.to_table().c_str());
  const bool study_ok = replay_study(bench, report);
  bench.write_analysis_json(report);
  bench.write_metrics_json(report);
  const int rc = bench.finish();
  return rc != 0 ? rc : (study_ok ? 0 : 1);
}
