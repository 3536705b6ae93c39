// The --mapper-matrix mode: run one fixed heterogeneous/faulty-node
// scenario once per placement policy and emit one JSON artifact per
// (app, mapper) cell, byte-compared with bench/baselines/mapper/ by the
// bench_mapper_exact_* CTests.
//
// The scenario deliberately oversubscribes the compute cores (the bench
// configs raise tasks/node well above cores/node) so placement quality
// shows up as queueing: node 0 runs at half speed, node 1 suffers an
// injected 2x slowdown window early in the run, and active-message
// handlers jitter by up to 200 ns. All three knobs are deterministic
// functions of virtual time and event identity, so every cell replays
// bit-identically.
#pragma once

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "rt/mapper.h"
#include "rt/runtime.h"
#include "sim/machine.h"

namespace cr::bench {

// One cell of the matrix: which policy to run and the machine scenario
// it runs under. apply() folds the scenario into a RuntimeConfig built
// by the app's usual exec::runtime_config() call.
struct MatrixCell {
  uint32_t nodes = 0;
  rt::MapperOptions mapper;
  std::vector<double> node_speed;
  std::vector<sim::MachineConfig::NodeSlowdown> slowdowns;
  sim::Time am_jitter_ns = 0;

  void apply(rt::RuntimeConfig& rc) const {
    rc.machine.node_speed = node_speed;
    rc.machine.slowdowns = slowdowns;
    rc.network.am_jitter_ns = am_jitter_ns;
    rc.network.jitter_seed = 1;  // fixed: same scenario for every mapper
  }
};

// Runs the app once for a cell (with the race checker on) and returns
// the full result; the harness checks it and writes the artifact.
using MatrixRunFn =
    std::function<exec::ExecutionResult(const MatrixCell& cell)>;

namespace detail {

// False when the artifact could not be written.
inline bool write_matrix_json(const std::string& path,
                              const std::string& app,
                              const std::string& mapper, uint32_t nodes,
                              const exec::ExecutionResult& res) {
  exec::ScalingPoint pt;
  pt.nodes = nodes;
  pt.seconds = exec::to_seconds(res.makespan_ns);
  pt.makespan_ns = static_cast<double>(res.makespan_ns);
  pt.metrics = res.metrics;
  exec::ScalingReport report;
  report.series.push_back({"mapper-matrix", {pt}});
  if (!write_report_json(
          path, "\"app\": \"" + app + "\",\n  \"mapper\": \"" + mapper + "\"",
          report, [](const exec::ScalingPoint&) { return true; },
          write_point_json)) {
    return false;
  }
  std::fprintf(stderr, "  matrix cell: %s\n", path.c_str());
  return true;
}

}  // namespace detail

// The fixed scenario for `nodes` machine nodes: node 0 at half speed,
// a 2x slowdown window on node 1 over virtual seconds [2, 6), 200 ns
// of AM-handler jitter.
inline MatrixCell matrix_scenario(uint32_t nodes) {
  MatrixCell cell;
  cell.nodes = nodes;
  cell.node_speed.assign(nodes, 1.0);
  cell.node_speed[0] = 0.5;
  if (nodes > 1) {
    cell.slowdowns.push_back({/*node=*/1, /*begin=*/2'000'000'000,
                              /*end=*/6'000'000'000, /*factor=*/2.0});
  }
  cell.am_jitter_ns = 200;
  return cell;
}

// Runs the (mapper x scenario) matrix: the race checker must come back
// clean on every cell. Writes
// BENCH_mapper.<app>.<policy>.json per cell and hard-fails (nonzero)
// if the balanced policy does not beat the adversarial one on makespan
// or a cell's artifact cannot be written.
inline int run_mapper_matrix(Bench& bench, uint32_t nodes,
                             const MatrixRunFn& run) {
  const std::vector<std::string> policies = {"default", "balanced",
                                             "adversarial"};
  std::map<std::string, sim::Time> makespans;
  bool ok = true;
  for (const std::string& policy : policies) {
    MatrixCell cell = matrix_scenario(nodes);
    cell.mapper.name = policy;
    std::fprintf(stderr, "  [matrix] %s, %u nodes...\n", policy.c_str(),
                 nodes);
    const exec::ExecutionResult res = run(cell);
    if (res.check == nullptr || !res.check->ok()) {
      std::fprintf(stderr, "FAIL: %s cell raced (or checker off)\n",
                   policy.c_str());
      ok = false;
    }
    makespans[policy] = res.makespan_ns;
    if (!detail::write_matrix_json(
            "BENCH_mapper." + bench.app() + "." + policy + ".json",
            bench.app(), policy, nodes, res)) {
      ok = false;
    }
  }
  std::printf("mapper matrix [%s, %u nodes]\n", bench.app().c_str(), nodes);
  for (const std::string& policy : policies) {
    std::printf("  %-12s %14llu ns\n", policy.c_str(),
                static_cast<unsigned long long>(makespans[policy]));
  }
  // Expected ordering on makespan: balanced <= default <= adversarial.
  // Only balanced < adversarial is load-bearing (the gate); the softer
  // comparisons warn, since a scenario tweak can legitimately flip them.
  if (makespans["balanced"] >= makespans["adversarial"]) {
    std::fprintf(stderr,
                 "FAIL: balanced (%llu) did not beat adversarial (%llu)\n",
                 (unsigned long long)makespans["balanced"],
                 (unsigned long long)makespans["adversarial"]);
    ok = false;
  }
  if (makespans["balanced"] > makespans["default"]) {
    std::fprintf(stderr, "warning: balanced is slower than default "
                         "in this scenario\n");
  }
  if (makespans["default"] > makespans["adversarial"]) {
    std::fprintf(stderr, "warning: default is slower than adversarial "
                         "in this scenario\n");
  }
  return ok ? 0 : 1;
}

}  // namespace cr::bench
