// The execution engine: interprets transformed programs on the simulated
// machine, in two modes.
//
//  - kImplicit (paper's "Regent w/o CR"): a single control thread on
//    node 0 issues every point task and every runtime copy in the
//    machine, paying dependence analysis and mapping costs per operation
//    — the O(N) control bottleneck of paper §1.
//  - kSpmd (paper's "Regent with CR"): one long-running shard control
//    thread per node issues only its owned operations; cross-shard
//    coherence comes from the compiler-inserted copies and point-to-point
//    synchronization (events attached to producers and consumers), and
//    scalar reductions use dynamic collectives.
//
// Execution is deferred (paper §4.1): control threads never block; they
// emit operations whose preconditions are events, and the DES resolves
// the timeline. In real-data mode kernels and copies move actual field
// data, which is how the transformation is validated against the
// sequential oracle.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.h"
#include "exec/cost_model.h"
#include "exec/exec_config.h"
#include "ir/program.h"
#include "rt/runtime.h"
#include "support/trace.h"

namespace cr::exec {

struct ExecutionResult {
  sim::Time makespan_ns = 0;
  // Race-checker verdict; set only when ExecConfig::check was enabled.
  std::shared_ptr<check::CheckResult> check;
  // Flattened snapshot of the runtime's MetricsRegistry at end of run,
  // the one record of every count ("exec.point_tasks", "rt.dep.*", ...;
  // read a key with support::count_of). Virtual-time and count
  // quantities only (safe to diff across hosts). Virtual time depends
  // only on rt.dep.pairs_scanned, never on how many pairs the overlap
  // lists let the tracker skip.
  std::map<std::string, double> metrics;
};

class Engine {
 public:
  // `program` must already be transformed (prepare_distributed for
  // kImplicit, control_replicate for kSpmd) and must outlive the engine.
  // config.pipeline is ignored here — it belongs to prepare(), which
  // runs the passes and then constructs the engine with the same config.
  Engine(rt::Runtime& rt, const ir::Program& program,
         const ExecConfig& config);
  ~Engine();

  // Unrolls the program into the simulator and runs it to completion.
  // One-shot, and so is the runtime: a second call, or a call on a
  // runtime that has already run, aborts. Construct a new Runtime and
  // Engine per run.
  ExecutionResult run();

  // Write the timeline recorded under ExecConfig::trace as a Chrome
  // trace-event JSON file (open in chrome://tracing or Perfetto):
  // pid = node, tid = core (plus NIC/memory tracks and a synthetic
  // "runtime" process). Without tracing the file holds an empty event
  // array. False when the file cannot be opened or written.
  [[nodiscard]] bool write_trace(const std::string& path) const;
  // Category breakdown, critical path and per-source-statement copy/sync
  // attribution of the traced run; call after run() with
  // ExecConfig::trace set.
  support::TraceSummary trace_summary() const;

  // Post-run access to results (real-data mode).
  double read_root_f64(rt::RegionId root, rt::FieldId f, uint64_t pt) const;
  // Final value of a scalar in the main (or implicit) environment.
  double scalar(ir::ScalarId id) const;

  // The race checker's inputs as the run under ExecConfig::check
  // recorded them: every access, and the happens-before graph with its
  // fire order. Empty without the checker. The log's point sets are
  // the forest's region sets, its own, and the pair tables' sets
  // (pair_point_sets), valid while the engine lives.
  const check::AccessLog& access_log() const;
  const sim::EventGraph& event_graph() const;
  std::vector<const support::IntervalSet*> pair_point_sets() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cr::exec
