// The region forest: logical regions, partitions, and the tree-shaped
// aliasing analysis of paper §2.3.
//
// Regions are nodes; partitions hang under the region they partition and
// hold one subregion per color. The forest answers the paper's central
// static question — may two regions alias? — with the least-common-
// ancestor test: walk both paths to their common ancestor; if the
// ancestor is a *disjoint* partition and the paths descend through
// different colors, the regions are provably disjoint, otherwise they may
// alias. The forest is append-only: region geometry never changes after
// creation, which lets the runtime's dependence analysis compute each
// region's exact overlaps once (rt/dependence.h).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "rt/field.h"
#include "rt/index_space.h"

namespace cr::rt {

using RegionId = uint32_t;
using PartitionId = uint32_t;
inline constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();

struct RegionNode {
  RegionId id = kNoId;
  IndexSpace ispace;
  std::shared_ptr<FieldSpace> fields;
  RegionId root = kNoId;            // root region of this tree
  PartitionId parent = kNoId;       // partition above (kNoId for roots)
  uint32_t depth = 0;               // regions above this one (root = 0)
  uint64_t color = 0;               // color under the parent partition
  std::vector<PartitionId> partitions;  // partitions of this region
  std::string name;
};

struct PartitionNode {
  PartitionId id = kNoId;
  RegionId parent = kNoId;
  bool disjoint = false;   // statically known disjoint (paper §2.1)
  bool complete = false;   // subregions cover the parent
  std::vector<RegionId> subregions;  // indexed by color
  std::string name;
};

class RegionForest {
 public:
  // Create a new top-level region (a fresh tree root).
  RegionId create_region(IndexSpace ispace, std::shared_ptr<FieldSpace> fs,
                         std::string name = {});

  // Create a partition of `parent` from explicit subspaces. `disjoint`
  // is the *static* claim (from the operator that built the subspaces);
  // debug builds verify it.
  PartitionId create_partition(RegionId parent,
                               std::vector<IndexSpace> subspaces,
                               bool disjoint, bool complete,
                               std::string name = {});

  const RegionNode& region(RegionId id) const;
  const PartitionNode& partition(PartitionId id) const;
  RegionId subregion(PartitionId p, uint64_t color) const;
  size_t num_regions() const { return regions_.size(); }
  size_t num_partitions() const { return partitions_.size(); }

  // Paper §2.3: symbolic LCA test. True unless the tree proves disjoint.
  // O(1) for the same region, different trees and siblings; one O(depth)
  // walk otherwise.
  bool may_alias(RegionId a, RegionId b) const;

  // Partition-level may-alias: could any subregion of p overlap any
  // subregion of q? Used by the data replication pass. For p == q this
  // asks whether distinct colors may overlap (false iff p is disjoint).
  bool partitions_may_alias(PartitionId p, PartitionId q) const;

  // Render the forest as an indented tree (one line per region or
  // partition; partitions are tagged with their disjoint/complete flags
  // — the paper's Figure 3/5 diagrams in text form).
  std::string to_string() const;

 private:
  // Whether two distinct regions of one tree are provably disjoint: an
  // allocation-free depth-lockstep walk to their common ancestor.
  bool lca_disjoint(RegionId a, RegionId b) const;

  // Deques: node references (and the IndexSpace objects inside them) stay
  // stable while the forest grows — physical instances, executors, and
  // oracle results hold pointers into them across compiler passes that
  // create new partitions.
  std::deque<RegionNode> regions_;
  std::deque<PartitionNode> partitions_;
};

}  // namespace cr::rt
