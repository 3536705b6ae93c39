#include "exec/report.h"

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>

namespace cr::exec {

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
    for (const ScalingPoint& p : s.points) {
      any_breakdown |= p.breakdown.has_value();
    }
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
        if (at == nullptr || !at->breakdown) {
          os << std::setw(30) << "-";
          continue;
        }
        const support::TraceBreakdown& b = *at->breakdown;
        std::ostringstream cell;
        cell << std::fixed << std::setprecision(0) << b.compute_frac() * 100
             << "/" << b.copy_frac() * 100 << "/" << b.sync_frac() * 100
             << "/" << b.idle_frac() * 100 << "%";
        os << std::setw(30) << cell.str();
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace cr::exec
