// Reporting helpers for the benchmark harness: weak-scaling rows in the
// style of the paper's Figures 6-9 (throughput per node and parallel
// efficiency per configuration).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/event.h"
#include "support/trace.h"

namespace cr::exec {

struct ScalingPoint {
  uint32_t nodes = 0;
  double seconds = 0;           // virtual seconds for the measured window
  double work_per_node = 0;     // elements (points/cells/zones) per node
  double iterations = 0;

  // Machine-time breakdown of the traced run behind this point (--trace);
  // rendered as an appendix table by to_table().
  std::optional<support::TraceBreakdown> breakdown;

  // The engine run behind this point (absent for the analytic reference
  // series): the flattened registry of ExecutionResult::metrics plus the
  // raw makespan, written by --metrics and byte-compared with the
  // committed baselines. Virtual-time quantities only, never host
  // wall-clock.
  bool has_metrics = false;
  double makespan_ns = 0;
  std::map<std::string, double> metrics;
  // Copy/sync provenance attribution of the traced run, if any.
  std::vector<support::TraceAttributionRow> attribution;

  // Host wall-clock of the point in seconds, measured under --selftime
  // for the BENCH_analysis artifact; < 0 when not measured. Never part
  // of to_table(), so stdout is the same with and without --selftime.
  double host_seconds = -1.0;

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
