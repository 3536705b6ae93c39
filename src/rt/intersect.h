// Dynamic region intersections (paper §3.3).
//
// Copies are issued between pairs of source and destination subregions,
// but only their intersections must move. The number/extent of the
// intersections is unknown at compile time, so this analysis runs at
// runtime, in two phases exactly as in the paper:
//
//  1. *Shallow* intersection: which (i, j) pairs overlap at all. One flat
//     index over the destination partition's children avoids the O(N^2)
//     all-pairs comparison. The paper uses an interval tree for
//     unstructured regions and a BVH for structured ones; here both are
//     keys into the same IntervalIndex: a child's intervals (exact), or
//     on grids with dim >= 2 the axis-0 extent of its bounding rect
//     (hits filtered by the full rect, then confirmed exactly).
//  2. *Complete* intersection: the exact element set for each
//     overlapping pair, computed per owning shard.
//
// The dependence tracker (rt/dependence.h) uses the interval-keyed index.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rt/region_tree.h"

namespace cr::rt {

// (interval, color) entries sorted by lo, with a running max of hi:
// O(n log n) build. A query binary-searches the running max for the
// first entry that can reach it, then scans while lo < q.hi.
class IntervalIndex {
 public:
  struct Entry {
    support::Interval iv;
    uint64_t color = 0;
  };
  explicit IntervalIndex(std::vector<Entry> entries);

  // Calls f(color) for every entry overlapping [q.lo, q.hi), in lo order
  // (a color repeats if it owns several overlapping entries).
  template <typename F>
  void query(support::Interval q, F&& f) const {
    if (q.empty()) return;
    auto it = std::partition_point(max_hi_.begin(), max_hi_.end(),
                                   [&](uint64_t hi) { return hi <= q.lo; });
    for (size_t i = it - max_hi_.begin();
         i < entries_.size() && entries_[i].iv.lo < q.hi; ++i) {
      if (entries_[i].iv.hi > q.lo) f(entries_[i].color);
    }
  }

 private:
  std::vector<Entry> entries_;
  std::vector<uint64_t> max_hi_;  // max of iv.hi over entries_[0..i]
};

// Index over a partition's children: one entry per interval, color =
// child color. Built once per partition and queried with another
// region's intervals, it answers "which children overlap this region"
// without touching the children that miss it.
IntervalIndex subregion_index(const RegionForest& forest, PartitionId p);

// Colors of `index` overlapping any interval of `pts`, ascending and
// deduplicated, written to `out` (cleared first). Exact: interval
// overlap implies element overlap for IntervalSets.
void overlapping_colors(const IntervalIndex& index,
                        const support::IntervalSet& pts,
                        std::vector<uint64_t>& out);

struct IntersectionPair {
  uint64_t src_color = 0;  // color i in the source partition
  uint64_t dst_color = 0;  // color j in the destination partition
  friend bool operator==(const IntersectionPair&,
                         const IntersectionPair&) = default;
  friend auto operator<=>(const IntersectionPair&,
                          const IntersectionPair&) = default;
};

// Phase 1: all (i, j) with src[i] ∩ dst[j] nonempty, sorted by (i, j).
// Exact (interval overlap implies element overlap for IntervalSets).
// Keys the index by bounding rects when the source's parent region is
// structured with dim >= 2, by intervals otherwise.
std::vector<IntersectionPair> shallow_intersections(const RegionForest& forest,
                                                    PartitionId src,
                                                    PartitionId dst);

// Phase 2: exact shared elements of one subregion pair.
support::IntervalSet complete_intersection(const RegionForest& forest,
                                           RegionId a, RegionId b);

}  // namespace cr::rt
