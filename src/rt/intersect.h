// Dynamic region intersections (paper §3.3).
//
// Copies are issued between pairs of source and destination subregions,
// but only their intersections must move. The number/extent of the
// intersections is unknown at compile time, so this analysis runs at
// runtime, in two phases exactly as in the paper:
//
//  1. *Shallow* intersection: which (i, j) pairs overlap at all. An
//     interval tree over the destination partition's intervals
//     (unstructured regions) or a BVH over subregion bounding boxes
//     (structured regions) avoids the O(N^2) all-pairs comparison.
//  2. *Complete* intersection: the exact element set for each
//     overlapping pair, computed per owning shard.
#pragma once

#include <cstdint>
#include <vector>

#include "rt/region_tree.h"

namespace cr::rt {

// Augmented static interval tree: O(n log n) build, O(log n + k) query.
class IntervalTree {
 public:
  struct Entry {
    support::Interval iv;
    uint64_t payload = 0;
  };
  explicit IntervalTree(std::vector<Entry> entries);

  // Append payloads of all entries overlapping [q.lo, q.hi) to `out`
  // (duplicates possible if one payload owns several entries).
  void query(support::Interval q, std::vector<uint64_t>& out) const;

  size_t size() const { return entries_.size(); }

 private:
  void build(size_t lo, size_t hi);
  void query_rec(size_t lo, size_t hi, support::Interval q,
                 std::vector<uint64_t>& out) const;
  std::vector<Entry> entries_;    // sorted by iv.lo; implicit balanced tree
  std::vector<uint64_t> max_hi_;  // subtree max of iv.hi per midpoint
};

// Bounding volume hierarchy over rectangles: median-split build.
class Bvh {
 public:
  struct Entry {
    Rect box;
    uint64_t payload = 0;
  };
  explicit Bvh(std::vector<Entry> entries);

  void query(const Rect& q, std::vector<uint64_t>& out) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Node {
    Rect box;
    uint32_t begin = 0, end = 0;   // leaf range into entries_
    uint32_t left = 0, right = 0;  // children (0 = leaf)
  };
  uint32_t build(uint32_t begin, uint32_t end);
  std::vector<Entry> entries_;
  std::vector<Node> nodes_;
};

// Interval tree over a partition's subregions: one entry per interval,
// payload = color. Built once per partition and queried with another
// region's intervals, it answers "which children overlap this region"
// without touching the children that miss it.
IntervalTree subregion_index(const RegionForest& forest, PartitionId p);

// Colors (payloads) of `index` overlapping any interval of `pts`,
// ascending and deduplicated, written to `out` (cleared first). Exact:
// interval overlap implies element overlap for IntervalSets.
void overlapping_colors(const IntervalTree& index,
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
// Picks the BVH when the underlying region is structured with dim >= 2,
// the interval tree otherwise.
std::vector<IntersectionPair> shallow_intersections(const RegionForest& forest,
                                                    PartitionId src,
                                                    PartitionId dst);

// Phase 2: exact shared elements of one subregion pair.
support::IntervalSet complete_intersection(const RegionForest& forest,
                                           RegionId a, RegionId b);

}  // namespace cr::rt
