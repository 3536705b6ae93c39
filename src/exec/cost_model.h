// The cost model: every calibration constant of the simulated machine's
// control plane in one place.
//
// These constants are the substitution for the Piz Daint testbed (see
// DESIGN.md §2): weak-scaling shapes are determined by the ratio of
// control-plane costs to task granularity and by the network parameters,
// all of which are explicit here and documented in EXPERIMENTS.md. The
// defaults are calibrated against the magnitudes reported for Legion:
// dynamic dependence analysis and mapping costs of tens of microseconds
// per task on the issuing control thread.
#pragma once

#include <cstdint>

#include "sim/network.h"

namespace cr::exec {

struct CostModel {
  // --- control-plane costs (ns), charged to the issuing control thread.
  // A single implicit-mode master pays this for every point task in the
  // machine; a shard pays shard_launch_ns only for the tasks it owns.
  double implicit_launch_ns = 40000;  // dyn. dependence analysis + mapping
                                      // + remote dispatch per point task
  double shard_launch_ns = 12000;     // shard-local analysis + local spawn
  double dep_pair_ns = 120;           // per dependence pair tested (master)
  double copy_issue_ns = 6000;        // per copy issued
  double fill_issue_ns = 2000;        // per fill issued
  double collective_issue_ns = 3000;  // per collective joined
  double scalar_op_ns = 800;          // deferred scalar arithmetic
  double single_task_issue_ns = 20000;
  double loop_overhead_ns = 1000;     // per sequential-loop iteration

  // --- dynamic intersections (paper §3.3 / Table 1).
  double isect_shallow_per_interval_ns = 220;  // build + query, one node
  double isect_complete_per_interval_ns = 45;  // exact sets, per shard

  // --- network (forwarded into sim::Network).
  sim::NetworkConfig network;

  // Deterministic pseudo-random compute-time noise per point task: with
  // probability task_slow_prob (a hash of the op id) it runs
  // (1 + task_slow_frac) times longer. Models heavy-tailed OS/system
  // variability: bulk-synchronous baselines amplify it through their
  // barriers and blocking collectives, while deferred execution absorbs
  // it — the §5.3 asynchrony effect.
  double task_slow_prob = 0.0;
  double task_slow_frac = 0.0;

  // Run the real dynamic dependence analysis in implicit mode (exact
  // pairs-tested accounting). The naive user lists are quadratic in
  // machine size, so large virtual-only sweeps disable this and rely on
  // the analytic per-launch charge instead.
  bool track_dependences = true;

  // Defaults shaped after the evaluation platform (Cray XC50).
  static CostModel piz_daint();
};

}  // namespace cr::exec
