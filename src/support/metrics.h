#pragma once

// MetricsRegistry: the one record of every count the system produces —
// analysis counters (rt/), simulator occupancy (sim/), per-pass IR sizes
// (passes/), executor rollups (exec/) and the race checker (check/).
// Names are hierarchical dot-paths ("rt.dep.pairs_tested",
// "passes.sync-insertion.barriers"); the registry owns the counters,
// hands out stable references, and renders a deterministic flat
// snapshot (sorted by name) so two identical simulated runs serialize
// byte-identically.
//
// Counters are plain host-side tallies: recording never touches virtual
// time, so metrics-on and metrics-off runs produce bit-identical
// makespans (enforced by test).

#include <cstdint>
#include <map>
#include <string>

namespace cr::support {

class Counter {
 public:
  void add(uint64_t d = 1) { value_ += d; }
  void set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class MetricsRegistry {
 public:
  // Lookup-or-create. References stay valid for the registry's lifetime
  // (node-based map storage).
  Counter& counter(const std::string& name) { return counters_[name]; }

  // Deterministic flat view: every counter by value. Keys sort
  // lexicographically (std::map order), so identical runs snapshot
  // identically.
  std::map<std::string, double> snapshot() const;

 private:
  std::map<std::string, Counter> counters_;
};

// The value of `name` in a snapshot; 0 when nothing created the counter
// (passes.copy-placement.* with placement off, say). Readers use this
// rather than MetricsRegistry::counter, which would create the key.
uint64_t count_of(const std::map<std::string, double>& snapshot,
                  const std::string& name);

}  // namespace cr::support
