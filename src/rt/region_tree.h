// The region forest: logical regions, partitions, and the tree-shaped
// aliasing analysis of paper §2.3.
//
// Regions are nodes; partitions hang under the region they partition and
// hold one subregion per color. The forest answers the paper's central
// static question — may two regions alias? — with the least-common-
// ancestor test: walk both paths to their common ancestor; if the
// ancestor is a *disjoint* partition and the paths descend through
// different colors, the regions are provably disjoint, otherwise they may
// alias. An exact (dynamic) overlap test is also provided for
// verification and for the runtime's dependence analysis.
//
// Both queries sit on the dependence-analysis hot path (one pair test
// per prior user per launched task), so they are memoized: the forest is
// append-only — region geometry never changes after creation — which
// makes every cached answer valid forever (no invalidation). Static
// O(1) fast paths (same region, different trees, siblings of one
// partition, ancestor/descendant detected by the depth-lockstep walk)
// answer most pairs without touching the cache or any interval data.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rt/field.h"
#include "rt/index_space.h"
#include "support/hash.h"

namespace cr::support {
class MetricsRegistry;
}  // namespace cr::support

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
  // Memoized; O(1) for pairs resolved by a static fast path or a cache
  // hit, one O(depth) walk on a cold genuinely-dynamic pair.
  bool may_alias(RegionId a, RegionId b) const;
  // Exact dynamic test on index spaces. Memoized; statically disjoint or
  // ancestor/descendant pairs never touch interval data, and each
  // remaining pair pays the exact interval merge at most once.
  bool overlaps_exact(RegionId a, RegionId b) const;

  // Export the memoization query/hit tallies into a metrics registry
  // under rt.alias.* / rt.overlap.* (idempotent set, not add — the
  // forest keeps the authoritative cumulative values). `fast`/`static`
  // count pairs resolved by an O(1) structural rule, `cache_hits` count
  // memo hits, `exact` counts interval merges actually performed.
  void export_metrics(support::MetricsRegistry& m) const;

  // Partition-level may-alias: could any subregion of p overlap any
  // subregion of q? Used by the data replication pass. For p == q this
  // asks whether distinct colors may overlap (false iff p is disjoint).
  bool partitions_may_alias(PartitionId p, PartitionId q) const;

  // Render the forest as an indented tree (one line per region or
  // partition; partitions are tagged with their disjoint/complete flags
  // — the paper's Figure 3/5 diagrams in text form).
  std::string to_string() const;

 private:
  // Structural relation of two distinct regions in one tree, computed by
  // an allocation-free depth-lockstep walk and memoized per pair.
  enum class Relation : uint8_t {
    kDisjoint = 1,  // provably disjoint (disjoint partition divergence)
    kAncestor = 2,  // one contains the other's index space
    kDynamic = 3,   // may alias; only interval data can decide overlap
  };
  Relation relation(RegionId a, RegionId b, uint64_t& cache_hits) const;
  Relation relation_walk(RegionId a, RegionId b) const;

  // Query/hit tallies for the memoized tests (cheap host-side bumps on
  // the hot path; exported on demand via export_metrics).
  struct AliasCounters {
    uint64_t alias_queries = 0;
    uint64_t alias_fast = 0;
    uint64_t alias_hits = 0;
    uint64_t overlap_queries = 0;
    uint64_t overlap_static = 0;
    uint64_t overlap_hits = 0;
    uint64_t overlap_exact = 0;
  };

  // Memo for (min, max) region pairs. Low 2 bits: Relation (0 = not yet
  // computed). Bit 2: exact overlap known. Bit 3: exact overlap value.
  mutable std::unordered_map<uint64_t, uint8_t, support::U64Hash> pair_cache_;
  mutable AliasCounters counters_;

  // Deques: node references (and the IndexSpace objects inside them) stay
  // stable while the forest grows — physical instances, executors, and
  // oracle results hold pointers into them across compiler passes that
  // create new partitions.
  std::deque<RegionNode> regions_;
  std::deque<PartitionNode> partitions_;
};

}  // namespace cr::rt
