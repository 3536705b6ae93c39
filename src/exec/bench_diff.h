// Metric regression gate: compares two BENCH_metrics JSON documents
// (written by bench --metrics, see bench/common.h) and flags any gated
// metric that grew past its relative threshold. Every gated quantity is
// a cost (virtual makespan, bytes moved, messages, events processed),
// so "higher than baseline" is always the regression direction.
//
// The comparison is structural: series are matched by name and points by
// node count; a series or point present in the baseline but missing from
// the current run is an error (a silently dropped configuration must not
// read as "no regressions").
#pragma once

#include <map>
#include <string>
#include <vector>

namespace cr::exec {

struct DiffOptions {
  // Relative threshold (percent) for the makespan_ns of every point.
  double makespan_pct = 5.0;
  // When >= 0, every metric in the point's snapshot is gated at this
  // threshold; when < 0 only makespan_ns and metric_pct entries gate.
  // Metrics with a "host." or "info." prefix are never covered by
  // all_pct (see host_pct below).
  double all_pct = -1;
  // Host-time gate: metrics whose key starts with "host." are measured
  // wall-clock quantities (seconds, slowdown ratios) — real but noisy,
  // so they get their own
  // threshold, typically much looser than the virtual-time gates. < 0
  // (the default) leaves them ungated. "info."-prefixed keys (rates,
  // rep counts) are never gated: they are context, not costs.
  double host_pct = -1;
  // Per-metric threshold overrides, by exact registry key.
  std::map<std::string, double> metric_pct;
  // Absolute fallback for zero baselines. A relative threshold is
  // meaningless when base == 0 (base * (1 + pct/100) stays 0, so any
  // positive current value — however tiny — would flag). Instead a
  // zero-baseline metric regresses only when cur > zero_abs_eps.
  double zero_abs_eps = 1e-9;
};

struct DiffResult {
  std::vector<std::string> lines;        // informational comparisons
  std::vector<std::string> regressions;  // gated metrics over threshold
  std::vector<std::string> errors;       // parse / structure problems
  bool ok() const { return regressions.empty() && errors.empty(); }
  // Full human-readable report (lines, then regressions and errors).
  std::string to_text() const;
};

// Compare two documents given as JSON text.
DiffResult bench_diff(const std::string& baseline_json,
                      const std::string& current_json,
                      const DiffOptions& options);

// Convenience: read both files, then compare. Unreadable files become
// errors in the result.
DiffResult bench_diff_files(const std::string& baseline_path,
                            const std::string& current_path,
                            const DiffOptions& options);

}  // namespace cr::exec
