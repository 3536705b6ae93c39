// The compile-time region tree analysis (paper §2.3, Figure 3).
//
// At compile time subregion indices are symbolic: either unevaluated loop
// variables or constants. This module answers may-alias queries over such
// symbolic references using only the *structure* of the region forest —
// partition disjointness flags and parent/child edges — never the index
// space contents (those are runtime information; compare the exact
// overlap lists of rt::DependenceTracker).
//
// It also provides the partition-granularity oracle the data replication
// pass consults, in two precisions:
//   - hierarchical (default): full LCA reasoning through nested disjoint
//     partitions — what makes the private/ghost idiom of §4.5 pay off;
//   - flat: only a partition's own disjointness is used, any two
//     distinct partitions of a tree are assumed aliased (the ablation
//     baseline for §4.5).
#pragma once

#include <cstdint>

#include "rt/region_tree.h"

namespace cr::ir {

// A symbolic subregion index: a loop variable (identified by an arbitrary
// id — two references with the same var id denote the same iteration) or
// a compile-time constant.
struct SymIndex {
  enum class Kind : uint8_t { kVar, kConst } kind = Kind::kVar;
  uint32_t var = 0;
  uint64_t value = 0;

  static SymIndex variable(uint32_t v) { return {Kind::kVar, v, 0}; }
  static SymIndex constant(uint64_t c) { return {Kind::kConst, 0, c}; }
};

// A symbolic region reference p[idx].
struct SymRegion {
  rt::PartitionId partition = rt::kNoId;
  SymIndex index;
};

class StaticRegionTree {
 public:
  explicit StaticRegionTree(const rt::RegionForest& forest,
                            bool hierarchical = true)
      : forest_(&forest), hierarchical_(hierarchical) {}

  // May p[i] alias q[j]? Sound: returns true unless disjointness is
  // provable from the tree structure and the symbolic indices.
  bool may_alias(const SymRegion& a, const SymRegion& b) const;

  // May any subregion of p overlap any subregion of q (p != q), or any
  // two distinct subregions of p overlap (p == q)?
  bool partitions_may_alias(rt::PartitionId p, rt::PartitionId q) const;

  bool hierarchical() const { return hierarchical_; }

 private:
  bool indices_equal(const SymIndex& a, const SymIndex& b) const;
  bool indices_provably_distinct(const SymIndex& a, const SymIndex& b) const;

  const rt::RegionForest* forest_;
  bool hierarchical_;
};

}  // namespace cr::ir
