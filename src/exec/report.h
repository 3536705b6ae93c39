// Reporting helpers for the benchmark harness: weak-scaling rows in the
// style of the paper's Figures 6-9 (throughput per node and parallel
// efficiency per configuration).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/event.h"
#include "support/trace.h"

namespace cr::exec {

// Per-source-statement copy/sync rollup of a traced run: which user
// statements induced the data movement and synchronization the pipeline
// inserted (see ir::Provenance). Rows come pre-sorted by total virtual
// time descending.
struct AttributionReport {
  std::vector<support::TraceAttributionRow> rows;
  bool empty() const { return rows.empty(); }
  // Aligned text table of the top-k rows (all rows when top_k == 0).
  std::string to_text(size_t top_k = 10) const;
};

// Host-side dynamic-analysis work of one execution: how much dependence
// analysis, region aliasing, and intersection work the runtime actually
// performed, and how well the acceleration structures absorbed it. The
// virtual-time charge is always based on dep_pairs_scanned (what the
// simulated implicit master pays); the other counters measure only this
// reproduction's host cost. Filled from ExecutionResult by Engine::run()
// and rendered by the benches' --selftime analysis block.
struct AnalysisStats {
  // Dependence tracker (rt::DependenceTracker).
  uint64_t dep_pairs_scanned = 0;  // exhaustive-scan pairs (charge basis)
  uint64_t dep_pairs_tested = 0;   // exact conflict tests actually run
  uint64_t dep_dependences = 0;
  uint64_t dep_index_queries = 0;
  uint64_t dep_index_rebuilds = 0;
  // Region-forest aliasing (rt::RegionForest memo).
  uint64_t alias_queries = 0;
  uint64_t alias_fast = 0;       // resolved by an O(1) structural rule
  uint64_t alias_cache_hits = 0;
  uint64_t overlap_queries = 0;
  uint64_t overlap_static = 0;   // resolved without interval data
  uint64_t overlap_cache_hits = 0;
  uint64_t overlap_exact = 0;    // interval merges actually performed

  // Host wall-clock of the run, seconds; < 0 when not measured (set by
  // the bench harness under --selftime, not by the engine). The
  // sentinel never reaches serialized reports: to_json() emits null for
  // an unmeasured value, and bench_diff rejects negative host times.
  double host_seconds = -1.0;

  // Prefilter effectiveness: fraction of exhaustive pairs skipped.
  double dep_prefilter_ratio() const {
    return dep_pairs_scanned > 0
               ? static_cast<double>(dep_pairs_tested) /
                     static_cast<double>(dep_pairs_scanned)
               : 0;
  }

  // Multi-line human-readable block (indented two spaces).
  std::string to_text() const;
  // One flat JSON object (no trailing newline).
  std::string to_json() const;
};

struct ScalingPoint {
  uint32_t nodes = 0;
  double seconds = 0;           // virtual seconds for the measured window
  double work_per_node = 0;     // elements (points/cells/zones) per node
  double iterations = 0;

  // Machine-time category fractions from a traced run (--trace); the
  // four fractions sum to 1. Valid only when has_breakdown is set.
  bool has_breakdown = false;
  double compute_frac = 0;
  double copy_frac = 0;
  double sync_frac = 0;
  double idle_frac = 0;

  // Analysis counters of the run behind this point (populated when the
  // bench recorded them); rendered as an appendix table by to_table().
  bool has_analysis = false;
  AnalysisStats analysis;

  // Full metrics snapshot of the run (bench --metrics): the flattened
  // registry of ExecutionResult::metrics, plus the raw makespan so
  // bench_diff can gate on it directly. Virtual-time quantities only —
  // never host wall-clock.
  bool has_metrics = false;
  double makespan_ns = 0;
  std::map<std::string, double> metrics;
  // Copy/sync provenance attribution of the traced run, if any.
  std::vector<support::TraceAttributionRow> attribution;

  // elements processed per second per node
  double throughput_per_node() const {
    return seconds > 0 ? work_per_node * iterations / seconds : 0;
  }
};

struct ScalingSeries {
  std::string name;
  std::vector<ScalingPoint> points;

  // Efficiency of the N-node point relative to this series' 1-node
  // throughput (weak scaling).
  double efficiency_at(uint32_t nodes) const;
};

struct ScalingReport {
  std::string title;
  std::string unit;  // e.g. "10^6 points/s"
  double unit_scale = 1e6;
  std::vector<ScalingSeries> series;

  // Render the figure as an aligned text table, one row per node count.
  std::string to_table() const;
};

// Duration helper: virtual ns -> seconds.
inline double to_seconds(sim::Time ns) {
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace cr::exec
