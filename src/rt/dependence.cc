#include "rt/dependence.h"

#include <algorithm>

#include "support/check.h"

namespace cr::rt {

const std::vector<DependenceTracker::Overlap>& DependenceTracker::overlaps_of(
    RegionId r) {
  // The passes create partitions, and they finish before the engine
  // records its first operation: the forest is fixed from then on, so a
  // list never misses a region.
  if (lists_.empty()) {
    lists_.resize(forest_->num_regions());
    child_index_.resize(forest_->num_partitions());
  }
  CR_CHECK_MSG(lists_.size() == forest_->num_regions() &&
                   child_index_.size() == forest_->num_partitions(),
               "region forest grew after the first dependence record");
  OverlapList& list = lists_[r];
  if (list.built) return list.entries;
  list.built = true;
  const support::IntervalSet& pts = forest_->region(r).ispace.points();
  if (pts.empty()) return list.entries;  // overlaps nothing, not even r

  // Descend r's tree from the root (which contains r, so overlaps it).
  // Each partition's child index yields exactly the children sharing an
  // element with r; a subtree whose root misses r is skipped whole.
  std::vector<RegionId> stack{forest_->region(r).root};
  std::vector<uint64_t> colors;
  while (!stack.empty()) {
    const RegionNode& q = forest_->region(stack.back());
    stack.pop_back();
    list.entries.push_back({q.id, pts.contains_all(q.ispace.points())});
    for (PartitionId p : q.partitions) {
      std::optional<IntervalIndex>& index = child_index_[p];
      if (!index) index = subregion_index(*forest_, p);
      overlapping_colors(*index, pts, colors);
      for (uint64_t c : colors) stack.push_back(forest_->subregion(p, c));
    }
  }
  return list.entries;
}

std::vector<sim::Event> DependenceTracker::record(uint64_t op_id,
                                                  const Requirement& req,
                                                  sim::Event completion) {
  std::vector<sim::Event> preconditions;
  const RegionId root = forest_->region(req.region).root;
  const std::vector<Overlap>& overlaps = overlaps_of(req.region);
  const bool can_prune = privilege_writes(req.privilege);

  for (FieldId f : req.fields) {
    FieldState& st = users_[{root, f}];
    // The exhaustive scan tests every live non-self user; charge that to
    // the simulated master regardless of how many buckets are skipped.
    const uint64_t self_live = st.last_op == op_id ? st.last_op_live : 0;
    pairs_scanned_ += st.alive - self_live;

    // Every live user sharing an element with the requirement, in issue
    // order — the exhaustive scan's order with the non-overlapping users
    // left out.
    gathered_.clear();
    for (const Overlap& o : overlaps) {
      auto it = st.buckets.find(o.region);
      if (it == st.buckets.end()) continue;
      for (User& u : it->second) gathered_.emplace_back(&u, o.covered);
    }
    std::sort(gathered_.begin(), gathered_.end(),
              [](const auto& a, const auto& b) {
                return a.first->seq < b.first->seq;
              });

    bool pruned = false;
    for (auto [u, covered] : gathered_) {
      // An operation never depends on itself (e.g. a copy registering
      // both its read and write requirements).
      if (u->op_id == op_id) continue;
      ++pairs_tested_;
      if (!privileges_conflict(u->privilege, u->redop, req.privilege,
                               req.redop)) {
        continue;
      }
      ++dependences_found_;
      // One precondition per predecessor: the same completion reached
      // via several fields would only make Simulator::merge re-wait on it.
      if (std::find(preconditions.begin(), preconditions.end(),
                    u->completion) == preconditions.end()) {
        preconditions.push_back(u->completion);
      }
      // Epoch pruning: a writer that covers a prior user transitively
      // orders every later conflicting operation, so the prior user can
      // retire. Only writers dominate (a reader covering a writer must
      // not hide it from later readers).
      if (can_prune && covered) {
        u->alive = false;
        --st.alive;
        pruned = true;
      }
    }
    if (pruned) {
      for (const Overlap& o : overlaps) {
        auto it = st.buckets.find(o.region);
        if (o.covered && it != st.buckets.end()) {
          std::erase_if(it->second, [](const User& u) { return !u.alive; });
        }
      }
    }

    st.buckets[req.region].push_back(
        {next_seq_++, op_id, req.privilege, req.redop, true, completion});
    ++st.alive;
    if (st.last_op == op_id) {
      ++st.last_op_live;
    } else {
      st.last_op = op_id;
      st.last_op_live = 1;
    }
  }
  return preconditions;
}

}  // namespace cr::rt
