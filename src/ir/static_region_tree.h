// The compile-time region tree analysis (paper §2.3, Figure 3).
//
// At compile time subregion indices are symbolic (unevaluated loop
// variables), so the passes ask may-alias questions at partition
// granularity, using only the *structure* of the region forest —
// partition disjointness flags and parent/child edges — never the index
// space contents (those are runtime information; compare the exact
// overlap lists of rt::DependenceTracker).
//
// The oracle the passes consult comes in two precisions:
//   - hierarchical (default): full LCA reasoning through nested disjoint
//     partitions — what makes the private/ghost idiom of §4.5 pay off;
//   - flat: only a partition's own disjointness is used, any two
//     distinct partitions of a tree are assumed aliased (the ablation
//     baseline for §4.5).
#pragma once

#include "rt/region_tree.h"

namespace cr::ir {

class StaticRegionTree {
 public:
  explicit StaticRegionTree(const rt::RegionForest& forest,
                            bool hierarchical = true)
      : forest_(&forest), hierarchical_(hierarchical) {}

  // May any subregion of p overlap any subregion of q (p != q), or any
  // two distinct subregions of p overlap (p == q)?
  bool partitions_may_alias(rt::PartitionId p, rt::PartitionId q) const;

  bool hierarchical() const { return hierarchical_; }

 private:
  const rt::RegionForest* forest_;
  bool hierarchical_;
};

}  // namespace cr::ir
