#pragma once

// MetricsRegistry: one named home for every counter, gauge and histogram
// the system produces — analysis counters (rt/), simulator occupancy
// (sim/), per-pass IR sizes (passes/), executor rollups (exec/) and the
// race checker (check/). Names are hierarchical dot-paths
// ("rt.dep.pairs_tested", "passes.sync-insertion.barriers"); the registry
// owns the instruments, hands out stable references, and renders a
// deterministic flat snapshot (sorted by name) so two identical
// simulated runs serialize byte-identically.
//
// All instruments are plain host-side tallies: recording never touches
// virtual time, so metrics-on and metrics-off runs produce bit-identical
// makespans (enforced by test).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cr::support {

class Counter {
 public:
  void add(uint64_t d = 1) { value_ += d; }
  void set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Log2-scale histogram over uint64 samples. Bucket 0 holds the value 0;
// bucket b (1 <= b <= 64) holds [2^(b-1), 2^b - 1] (bucket 64's upper
// bound saturates at UINT64_MAX). Fixed bucket count keeps snapshots
// deterministic regardless of the observed range.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  static size_t bucket_of(uint64_t v);
  static uint64_t bucket_lo(size_t b);
  static uint64_t bucket_hi(size_t b);

  void record(uint64_t v);
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  uint64_t max() const { return max_; }
  const uint64_t* buckets() const { return buckets_; }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  // Lookup-or-create. References stay valid for the registry's lifetime
  // (node-based map storage). Registering one name as two different
  // instrument kinds is a programming error (CHECK-fails).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Deterministic flat view: counters and gauges by value; histograms
  // flattened to <name>.count/.sum/.min/.max. Keys sort lexicographically
  // (std::map order), so identical runs snapshot identically.
  std::map<std::string, double> snapshot() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace cr::support
