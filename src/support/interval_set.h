// Sorted, coalesced set of half-open intervals over uint64 element ids.
//
// Every index space in the runtime — structured grids (linearized row
// segments) and unstructured node/cell sets alike — is represented as an
// IntervalSet. All the set algebra the paper's analyses need (region
// intersection for copies, disjointness for the region tree, image
// computation for dependent partitioning) reduces to linear-time merges
// over this representation.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

namespace cr::support {

struct Interval {
  uint64_t lo = 0;  // inclusive
  uint64_t hi = 0;  // exclusive
  uint64_t size() const { return hi - lo; }
  bool empty() const { return lo >= hi; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

class IntervalSet {
 public:
  IntervalSet() = default;
  IntervalSet(std::initializer_list<Interval> ivs);

  // [lo, hi) as a single interval (empty if lo >= hi).
  static IntervalSet range(uint64_t lo, uint64_t hi);
  // From arbitrary (possibly unsorted, duplicated) points.
  static IntervalSet from_points(std::vector<uint64_t> points);

  // Set algebra; O(|a| + |b|) in interval counts at worst. Runs of
  // intervals that cannot meet the other set are skipped by galloping,
  // so a few intervals against a large set cost O(few · log |large|).
  IntervalSet set_union(const IntervalSet& other) const;
  IntervalSet set_intersect(const IntervalSet& other) const;
  IntervalSet set_subtract(const IntervalSet& other) const;

  // Predicates.
  bool contains(uint64_t point) const;          // O(log n)
  bool contains_all(const IntervalSet& other) const;
  bool overlaps(const IntervalSet& other) const;
  bool disjoint(const IntervalSet& other) const { return !overlaps(other); }
  bool empty() const { return ivs_.empty(); }

  // Total number of elements.
  uint64_t size() const;
  // Number of maximal intervals (the "fragmentation" of the set).
  size_t interval_count() const { return ivs_.size(); }
  // Smallest interval covering the whole set; undefined when empty.
  Interval bounds() const;

  // Incremental construction. add() accepts intervals in any order;
  // append() requires lo >= the current maximum and is O(1) amortized.
  // Point insertion rejects UINT64_MAX loudly: `p + 1` wraps to 0, so a
  // half-open uint64 interval cannot represent it, and silently dropping
  // the point would corrupt set algebra downstream.
  void add(uint64_t lo, uint64_t hi);
  void append(uint64_t lo, uint64_t hi);
  void add_point(uint64_t p) { check_representable(p); add(p, p + 1); }
  void append_point(uint64_t p) { check_representable(p); append(p, p + 1); }
  void clear() { ivs_.clear(); }

  // Iteration.
  const std::vector<Interval>& intervals() const { return ivs_; }
  void for_each_point(const std::function<void(uint64_t)>& fn) const;

  // The id of the k-th smallest element (k < size()); O(log n).
  uint64_t nth_point(uint64_t k) const;

  std::string to_string() const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  static void check_representable(uint64_t p);
  void normalize();  // sort + coalesce after arbitrary adds
  std::vector<Interval> ivs_;
};

}  // namespace cr::support
