// Dynamic dependence analysis: Legion's core runtime service (paper §4.1,
// "Legion discovers parallelism between tasks by computing a dynamic
// dependence graph over the tasks in an executing program").
//
// The tracker records, per (region tree root, field), the operations
// currently using elements of that tree. A new operation receives the
// completion events of every prior user it conflicts with — overlapping
// elements and non-compatible privileges — and is registered as a user
// itself. Writers that fully cover earlier users retire them (epoch
// pruning), which keeps the lists short for the common access patterns.
//
// This analysis is exactly the per-launch work a single control thread
// must serialize in the implicit model. Two counters separate the
// *simulated* cost from the *host* cost of reproducing it:
//
//  - pairs_scanned(): what an exhaustive scan over the live user lists
//    would test. This is the virtual-time cost basis fed to the cost
//    model — it models the implicit master and must not change when the
//    host-side analysis gets faster.
//  - pairs_tested(): privilege tests this implementation actually ran.
//    Live users are bucketed by region, and a requirement on R visits
//    only the buckets of regions that overlap R, so pairs_tested() stays
//    far below pairs_scanned() on mostly-disjoint access patterns.
//
// Which regions overlap R is a fixed fact of the region forest (geometry
// never changes after creation, and the passes that add partitions
// finish before the first record()), so each region's overlap list is
// computed once, the first time a requirement names it, by descending
// R's tree from the root through one IntervalIndex (rt/intersect.h) per
// partition over its children's intervals. The buckets on the list hold
// exactly the users an exhaustive scan would find overlapping; sorting
// them by issue sequence reproduces the scan's dependence set,
// precondition order and pruned epochs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "rt/intersect.h"
#include "rt/task.h"
#include "sim/event.h"

namespace cr::rt {

class DependenceTracker {
 public:
  explicit DependenceTracker(const RegionForest& forest) : forest_(&forest) {}

  // Record an operation's use of a region; returns the completion events
  // of conflicting predecessors (deduplicated: a predecessor reached via
  // several fields appears once). `completion` is the new operation's
  // own completion event. Requirements of one operation must be recorded
  // contiguously (no interleaving with other operations), which the
  // engine's sequential issue loop guarantees.
  std::vector<sim::Event> record(uint64_t op_id, const Requirement& req,
                                 sim::Event completion);

  // Privilege tests performed by this implementation.
  uint64_t pairs_tested() const { return pairs_tested_; }
  // Pairs an exhaustive scan would have tested (virtual-time cost basis).
  uint64_t pairs_scanned() const { return pairs_scanned_; }
  uint64_t dependences_found() const { return dependences_found_; }

 private:
  struct User {
    uint64_t seq = 0;  // issue order across every bucket of the tracker
    uint64_t op_id = 0;
    Privilege privilege = Privilege::kReadOnly;
    ReduceOp redop = ReduceOp::kSum;
    bool alive = true;
    sim::Event completion;
  };

  // Per-(root, field) live users, bucketed by region in issue order.
  struct FieldState {
    std::unordered_map<RegionId, std::vector<User>> buckets;
    uint64_t alive = 0;
    // Self-requirement tracking: live entries of the most recent
    // recording operation (an operation never depends on itself, and the
    // exhaustive scan skips such entries without counting them).
    uint64_t last_op = UINT64_MAX;
    uint64_t last_op_live = 0;
  };

  // A region overlapping the list's owner; `covered` when the owner
  // contains all of its elements (a writer of the owner retires it).
  struct Overlap {
    RegionId region = kNoId;
    bool covered = false;
  };
  struct OverlapList {
    bool built = false;
    std::vector<Overlap> entries;
  };

  const std::vector<Overlap>& overlaps_of(RegionId r);

  const RegionForest* forest_;
  // Keyed by (tree root, field).
  std::map<std::pair<RegionId, FieldId>, FieldState> users_;
  // Geometry caches, indexed by region / by partition. Sized at the
  // first record(); the forest must not grow after it.
  std::vector<OverlapList> lists_;
  std::vector<std::optional<IntervalIndex>> child_index_;
  std::vector<std::pair<User*, bool>> gathered_;  // scratch: (user, covered)
  uint64_t next_seq_ = 0;
  uint64_t pairs_tested_ = 0;
  uint64_t pairs_scanned_ = 0;
  uint64_t dependences_found_ = 0;
};

}  // namespace cr::rt
