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
//  - pairs_tested(): exact conflict tests this implementation actually
//    ran. The tracker keeps an interval tree over each user list's
//    bounding extents, so a new requirement only tests geometric
//    candidates and pairs_tested() drops far below pairs_scanned() on
//    mostly-disjoint access patterns.
//
// The index finds the same dependence set, in the same order, and prunes
// the same epochs as the exhaustive scan: a user whose bounding extent
// misses the requirement's cannot overlap it exactly, so the geometric
// candidate set is a superset of every conflicting user.
#pragma once

#include <cstdint>
#include <map>
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

  // Clear all user lists (between independent executions).
  void reset();

  // Exact conflict tests performed by this implementation.
  uint64_t pairs_tested() const { return pairs_tested_; }
  // Pairs an exhaustive scan would have tested (virtual-time cost basis).
  uint64_t pairs_scanned() const { return pairs_scanned_; }
  uint64_t dependences_found() const { return dependences_found_; }
  uint64_t index_queries() const { return index_queries_; }
  uint64_t index_rebuilds() const { return index_rebuilds_; }

 private:
  struct User {
    uint64_t op_id = 0;
    Privilege privilege = Privilege::kReadOnly;
    ReduceOp redop = ReduceOp::kSum;
    RegionId region = kNoId;
    sim::Event completion;
    support::Interval bounds;  // bounding extent of the region's points
                               // ({0, 0} for an empty region: matches no
                               // query, exactly as it overlaps nothing)
    bool alive = true;
  };

  // Per-(root, field) user list. Users append in issue order and retire
  // in place (tombstones), so a slot index is an insertion timestamp:
  // candidate sets sorted by index reproduce the exhaustive scan's order
  // exactly. The interval tree indexes the prefix [0, indexed_end);
  // younger users are scanned linearly until enough staleness (pending
  // appends + tombstones) accumulates to amortize a rebuild.
  struct FieldState {
    std::vector<User> slots;
    IntervalTree tree{std::vector<IntervalTree::Entry>{}};
    size_t indexed_end = 0;
    uint64_t alive = 0;
    uint64_t dead = 0;
    // Self-requirement tracking: live entries of the most recent
    // recording operation (an operation never depends on itself, and the
    // exhaustive scan skips such entries without counting them).
    uint64_t last_op = UINT64_MAX;
    uint64_t last_op_live = 0;
    // Accumulated linear tail-scan work since the last rebuild. The
    // staleness ratio alone is not enough to bound it: heavy tombstone
    // churn keeps `alive` large while the unindexed tail is rescanned by
    // every query, so total tail work between rebuilds can grow
    // quadratically in the query count.
    uint64_t tail_touched = 0;
  };

  void register_user(FieldState& st, uint64_t op_id, const Requirement& req,
                     sim::Event completion, support::Interval bounds);
  void maybe_rebuild(FieldState& st);

  const RegionForest* forest_;
  // Keyed by (tree root, field).
  std::map<std::pair<RegionId, FieldId>, FieldState> users_;
  std::vector<uint32_t> cand_;   // scratch: candidate slot indices
  std::vector<uint64_t> hits_;   // scratch: raw interval-tree payloads
  uint64_t pairs_tested_ = 0;
  uint64_t pairs_scanned_ = 0;
  uint64_t dependences_found_ = 0;
  uint64_t index_queries_ = 0;
  uint64_t index_rebuilds_ = 0;
};

}  // namespace cr::rt
