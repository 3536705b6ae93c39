#include "rt/dependence.h"

#include <algorithm>

#include "support/check.h"

namespace cr::rt {

std::vector<sim::Event> DependenceTracker::record(uint64_t op_id,
                                                  const Requirement& req,
                                                  sim::Event completion) {
  std::vector<sim::Event> preconditions;
  const RegionNode& node = forest_->region(req.region);
  const support::IntervalSet& pts = node.ispace.points();
  const bool can_prune = privilege_writes(req.privilege);
  support::Interval query{0, 0};
  if (!pts.empty()) query = pts.bounds();

  for (FieldId f : req.fields) {
    FieldState& st = users_[{node.root, f}];
    // The exhaustive scan tests every live non-self user; charge that to
    // the simulated master regardless of what the index skips.
    const uint64_t self_live = st.last_op == op_id ? st.last_op_live : 0;
    pairs_scanned_ += st.alive - self_live;

    // Candidate slots, in insertion order. The geometric candidate set
    // is a superset of every exactly-overlapping user (bounding extents
    // are conservative), so the conflicts found — and the epochs pruned
    // — match the exhaustive scan's exactly.
    cand_.clear();
    if (!pts.empty()) {
      ++index_queries_;
      hits_.clear();
      st.tree.query(query, hits_);
      cand_.assign(hits_.begin(), hits_.end());
      st.tail_touched +=
          static_cast<uint64_t>(st.slots.size() - st.indexed_end);
      for (size_t i = st.indexed_end; i < st.slots.size(); ++i) {
        const support::Interval& b = st.slots[i].bounds;
        if (b.lo < query.hi && query.lo < b.hi) {
          cand_.push_back(static_cast<uint32_t>(i));
        }
      }
      std::sort(cand_.begin(), cand_.end());
    }

    for (uint32_t idx : cand_) {
      User& u = st.slots[idx];
      // Tombstones, and an operation never depending on itself (e.g. a
      // copy registering both its read and write requirements).
      if (!u.alive || u.op_id == op_id) continue;
      ++pairs_tested_;
      const bool conflict =
          privileges_conflict(u.privilege, u.redop, req.privilege,
                              req.redop) &&
          forest_->may_alias(u.region, req.region) &&
          forest_->overlaps_exact(u.region, req.region);
      if (!conflict) continue;
      ++dependences_found_;
      // One precondition per predecessor: the same completion reached
      // via several fields would only make Simulator::merge re-wait on it.
      if (std::find(preconditions.begin(), preconditions.end(),
                    u.completion) == preconditions.end()) {
        preconditions.push_back(u.completion);
      }
      // Epoch pruning: a writer that covers a prior user transitively
      // orders every later conflicting operation, so the prior user can
      // retire. Only writers dominate (a reader covering a writer must
      // not hide it from later readers).
      if (can_prune &&
          pts.contains_all(forest_->region(u.region).ispace.points())) {
        u.alive = false;
        --st.alive;
        ++st.dead;
      }
    }

    register_user(st, op_id, req, completion, query);
    maybe_rebuild(st);
  }
  return preconditions;
}

void DependenceTracker::register_user(FieldState& st, uint64_t op_id,
                                      const Requirement& req,
                                      sim::Event completion,
                                      support::Interval bounds) {
  User nu;
  nu.op_id = op_id;
  nu.privilege = req.privilege;
  nu.redop = req.redop;
  nu.region = req.region;
  nu.completion = completion;
  nu.bounds = bounds;
  st.slots.push_back(std::move(nu));
  ++st.alive;
  if (st.last_op == op_id) {
    ++st.last_op_live;
  } else {
    st.last_op = op_id;
    st.last_op_live = 1;
  }
}

void DependenceTracker::maybe_rebuild(FieldState& st) {
  // Staleness = users the index doesn't cover well: appends past
  // indexed_end (scanned linearly per query) plus tombstones (returned
  // by queries, then skipped). Rebuilding once staleness reaches an
  // eighth of the live list amortizes to O(log n) per record. That
  // ratio alone is not a bound on tail work, though: with heavy
  // tombstone churn `alive` stays large while a short unindexed tail is
  // rescanned by every query, so the second trigger caps *accumulated*
  // tail scans — once they have cost as much as one pass over the live
  // list (the price of a rebuild), rebuilding amortizes to O(1) extra.
  // Rebuild timing is host-side only: candidates are live slots whose
  // bounds overlap the query either way, so pairs_tested and the
  // dependence set are unaffected.
  const uint64_t stale =
      static_cast<uint64_t>(st.slots.size() - st.indexed_end) + st.dead;
  const bool ratio_stale = stale > 64 && stale * 8 >= st.alive;
  const bool tail_hot = st.tail_touched > 64 && st.tail_touched >= st.alive;
  if (!ratio_stale && !tail_hot) return;
  st.tail_touched = 0;
  if (st.dead > 0) {
    std::erase_if(st.slots, [](const User& u) { return !u.alive; });
    st.dead = 0;
  }
  CR_DCHECK(st.slots.size() == st.alive);
  std::vector<IntervalTree::Entry> entries;
  entries.reserve(st.slots.size());
  for (size_t i = 0; i < st.slots.size(); ++i) {
    if (!st.slots[i].bounds.empty()) {
      entries.push_back({st.slots[i].bounds, i});
    }
  }
  st.tree = IntervalTree(std::move(entries));
  st.indexed_end = st.slots.size();
  ++index_rebuilds_;
}

void DependenceTracker::reset() {
  users_.clear();
  pairs_tested_ = 0;
  pairs_scanned_ = 0;
  dependences_found_ = 0;
  index_queries_ = 0;
  index_rebuilds_ = 0;
}

}  // namespace cr::rt
