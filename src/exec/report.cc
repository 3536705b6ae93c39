#include "exec/report.h"

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>

namespace cr::exec {

namespace {

double rate(uint64_t part, uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0;
}

}  // namespace

std::string AttributionReport::to_text(size_t top_k) const {
  std::ostringstream os;
  os << "copy/sync attribution (by source statement)\n";
  if (rows.empty()) {
    os << "  (nothing attributed; run with tracing enabled)\n";
    return os.str();
  }
  size_t shown = 0;
  for (const support::TraceAttributionRow& r : rows) {
    if (top_k != 0 && shown++ >= top_k) break;
    os << "  #" << r.source << " " << std::left << std::setw(16) << r.label
       << std::right << std::fixed << std::setprecision(3) << "  copy "
       << std::setw(10) << r.copy_ns * 1e-6 << " ms  sync " << std::setw(10)
       << r.sync_ns * 1e-6 << " ms  (" << r.spans << " spans)\n";
  }
  return os.str();
}

std::string AnalysisStats::to_text() const {
  std::ostringstream os;
  os << std::fixed;
  os << "  dependence: scanned=" << dep_pairs_scanned
     << " tested=" << dep_pairs_tested << " ("
     << std::setprecision(1) << dep_prefilter_ratio() * 100
     << "% of exhaustive), found=" << dep_dependences
     << ", index queries=" << dep_index_queries
     << " rebuilds=" << dep_index_rebuilds << "\n";
  os << "  aliasing:   queries=" << alias_queries << " (fast "
     << std::setprecision(1) << rate(alias_fast, alias_queries) * 100
     << "%, cached " << rate(alias_cache_hits, alias_queries) * 100
     << "%)\n";
  os << "  overlap:    queries=" << overlap_queries << " (static "
     << std::setprecision(1) << rate(overlap_static, overlap_queries) * 100
     << "%, cached " << rate(overlap_cache_hits, overlap_queries) * 100
     << "%, exact merges=" << overlap_exact << ")\n";
  if (host_seconds >= 0) {
    os << "  host wall-clock: " << std::setprecision(3) << host_seconds
       << " s\n";
  }
  return os.str();
}

std::string AnalysisStats::to_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"dep_pairs_scanned\":" << dep_pairs_scanned
     << ",\"dep_pairs_tested\":" << dep_pairs_tested
     << ",\"dep_dependences\":" << dep_dependences
     << ",\"dep_index_queries\":" << dep_index_queries
     << ",\"dep_index_rebuilds\":" << dep_index_rebuilds
     << ",\"alias_queries\":" << alias_queries
     << ",\"alias_fast\":" << alias_fast
     << ",\"alias_cache_hits\":" << alias_cache_hits
     << ",\"overlap_queries\":" << overlap_queries
     << ",\"overlap_static\":" << overlap_static
     << ",\"overlap_cache_hits\":" << overlap_cache_hits
     << ",\"overlap_exact\":" << overlap_exact;
  if (host_seconds >= 0) {
    os << ",\"host_seconds\":" << std::setprecision(6) << std::fixed
       << host_seconds;
  } else {
    // Unmeasured sentinel: emit an explicit null rather than leaking
    // -1.0 into the JSON — consumers (bench_diff) reject negative host
    // times as structurally invalid.
    os << ",\"host_seconds\":null";
  }
  os << "}";
  return os.str();
}

double ScalingSeries::efficiency_at(uint32_t nodes) const {
  const ScalingPoint* base = nullptr;
  const ScalingPoint* at = nullptr;
  for (const ScalingPoint& p : points) {
    if (base == nullptr || p.nodes < base->nodes) base = &p;
    if (p.nodes == nodes) at = &p;
  }
  if (base == nullptr || at == nullptr) return 0;
  const double b = base->throughput_per_node();
  return b > 0 ? at->throughput_per_node() / b : 0;
}

std::string ScalingReport::to_table() const {
  std::set<uint32_t> node_counts;
  for (const ScalingSeries& s : series) {
    for (const ScalingPoint& p : s.points) node_counts.insert(p.nodes);
  }
  std::ostringstream os;
  os << title << "  [throughput/node in " << unit
     << "; eff = weak-scaling parallel efficiency]\n";
  os << std::left << std::setw(8) << "nodes";
  for (const ScalingSeries& s : series) {
    os << std::setw(22) << s.name + " (eff)";
  }
  os << "\n";
  for (uint32_t n : node_counts) {
    os << std::left << std::setw(8) << n;
    for (const ScalingSeries& s : series) {
      const ScalingPoint* at = nullptr;
      for (const ScalingPoint& p : s.points) {
        if (p.nodes == n) at = &p;
      }
      if (at == nullptr) {
        os << std::setw(22) << "-";
        continue;
      }
      std::ostringstream cell;
      cell << std::fixed << std::setprecision(1)
           << at->throughput_per_node() / unit_scale << " ("
           << std::setprecision(0) << s.efficiency_at(n) * 100 << "%)";
      os << std::setw(22) << cell.str();
    }
    os << "\n";
  }
  // Profile appendix: category breakdown per traced point, if any series
  // carried one (populated by bench --trace).
  bool any_breakdown = false;
  for (const ScalingSeries& s : series) {
    for (const ScalingPoint& p : s.points) any_breakdown |= p.has_breakdown;
  }
  if (any_breakdown) {
    os << "\nmachine-time breakdown  [% of nodes x cores x makespan]\n";
    os << std::left << std::setw(8) << "nodes";
    for (const ScalingSeries& s : series) {
      os << std::setw(30) << s.name + " (comp/copy/sync/idle)";
    }
    os << "\n";
    for (uint32_t n : node_counts) {
      os << std::left << std::setw(8) << n;
      for (const ScalingSeries& s : series) {
        const ScalingPoint* at = nullptr;
        for (const ScalingPoint& p : s.points) {
          if (p.nodes == n) at = &p;
        }
        if (at == nullptr || !at->has_breakdown) {
          os << std::setw(30) << "-";
          continue;
        }
        std::ostringstream cell;
        cell << std::fixed << std::setprecision(0)
             << at->compute_frac * 100 << "/" << at->copy_frac * 100 << "/"
             << at->sync_frac * 100 << "/" << at->idle_frac * 100 << "%";
        os << std::setw(30) << cell.str();
      }
      os << "\n";
    }
  }
  // Analysis appendix: dynamic-analysis counters per recorded point (the
  // --selftime instrumentation of the dependence/aliasing hot path).
  for (const ScalingSeries& s : series) {
    for (const ScalingPoint& p : s.points) {
      if (!p.has_analysis) continue;
      os << "\nanalysis [" << s.name << ", " << p.nodes << " nodes]\n"
         << p.analysis.to_text();
    }
  }
  return os.str();
}

}  // namespace cr::exec
