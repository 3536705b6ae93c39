#include "passes/sync_insertion.h"

namespace cr::passes {

namespace {

bool is_inter_shard_copy(const ir::Stmt& s) {
  // Partition-to-partition copies can cross shard boundaries; copies
  // with a root endpoint are issued by the main task outside the shards.
  return s.kind == ir::StmtKind::kCopy && s.copy_src != rt::kNoId &&
         s.copy_dst != rt::kNoId;
}

bool fields_overlap(const std::vector<rt::FieldId>& a,
                    const std::vector<rt::FieldId>& b) {
  for (rt::FieldId x : a) {
    for (rt::FieldId y : b) {
      if (x == y) return true;
    }
  }
  return false;
}

// A region access some statement performs, summarized for the
// cross-shard hazard test below. Accesses meet only through a shared
// physical instance, and the executors keep one instance per
// (partition, color) — so identity is the partition; kNoId means the
// root's master instance (single tasks, root-endpoint copies), which no
// inter-shard copy touches. `aligned` marks identity-projection
// index-launch arguments on disjoint partitions — the one case where
// the accessing shard is statically known (point i runs on the shard
// owning color i). The field list is held by value: the statements it
// came from may live in a body that barrier insertion reallocates while
// the access is still in use.
struct PriorAccess {
  rt::PartitionId partition = rt::kNoId;
  std::vector<rt::FieldId> fields;
  bool write = false;  // any non-read privilege
  bool aligned = false;
};

class SyncInserter {
 public:
  SyncInserter(ir::Program& program, bool p2p)
      : program_(program), p2p_(p2p) {}
  SyncInsertionResult result;

  // `cyclic` marks a loop body: execution wraps around, so for the
  // leading-barrier analysis every statement of the body precedes every
  // other.
  void process(std::vector<ir::Stmt>& body, std::vector<PriorAccess> prefix,
               bool cyclic) {
    for (size_t k = 0; k < body.size(); ++k) {
      ir::Stmt& s = body[k];
      if (s.body.empty()) continue;
      std::vector<PriorAccess> inner = prefix;
      if (s.kind == ir::StmtKind::kForTime) {
        // A loop body cycles: every statement of the body precedes its
        // copies in some iteration.
        collect_accesses(s, inner);
      } else {
        for (size_t g = 0; g < k; ++g) collect_accesses(body[g], inner);
      }
      process(s.body, std::move(inner), s.kind == ir::StmtKind::kForTime);
    }
    if (p2p_) {
      for (ir::Stmt& s : body) {
        if (is_inter_shard_copy(s)) {
          s.sync = ir::SyncMode::kP2P;
          s.sync_id = program_.num_sync_ops++;
          if (s.prov.valid()) s.prov.passes.push_back("sync-insertion");
          ++result.p2p_copies;
        }
      }
      return;
    }
    // Naive form: barrier() around each run of copies (Figure 4c lines
    // 10 and 12). Barrier-synchronized copies run with their cross-shard
    // dependence edges relaxed (the barrier *is* the synchronization),
    // so a run must additionally be split wherever two of its copies
    // conflict: a copy reading or overwriting data another copy in the
    // same run produces may not share its barrier interval.
    for (size_t i = 0; i < body.size(); ++i) {
      if (!is_inter_shard_copy(body[i])) continue;
      size_t j = i;
      while (j < body.size() && is_inter_shard_copy(body[j])) ++j;
      // Partition [i, j) greedily into conflict-free groups.
      std::vector<size_t> splits;  // group start offsets within [i, j)
      size_t group_start = i;
      for (size_t k = i + 1; k < j; ++k) {
        for (size_t g = group_start; g < k; ++g) {
          if (copies_conflict(body[g], body[k])) {
            splits.push_back(k);
            group_start = k;
            break;
          }
        }
      }
      // The leading barrier orders accesses *before* the run against
      // its copies. When every such access is provably issued by the
      // same shard as the copy side it conflicts with, the ordering
      // already holds shard-locally and the barrier would be dead
      // weight (and an undetectable sync mutant). Inside a loop the
      // window between the previous iteration's trailing barrier and
      // this one wraps around, so the whole body counts as preceding.
      std::vector<PriorAccess> before = prefix;
      if (cyclic) {
        for (size_t g = 0; g < body.size(); ++g) {
          if (g < i || g >= j) collect_accesses(body[g], before);
        }
      } else {
        for (size_t g = 0; g < i; ++g) collect_accesses(body[g], before);
      }
      bool need_leading = false;
      for (const PriorAccess& a : before) {
        for (size_t c = i; c < j && !need_leading; ++c) {
          need_leading = cross_shard_conflict(a, body[c]);
        }
        if (need_leading) break;
      }
      // One barrier before the run (when needed), one after each group
      // (the barrier closing a group doubles as the one opening the
      // next).
      std::vector<size_t> at;  // insertion points, ascending
      if (need_leading) at.push_back(i);
      for (size_t s : splits) at.push_back(s);
      at.push_back(j);
      for (size_t b = at.size(); b-- > 0;) {
        ir::Stmt barrier;
        barrier.kind = ir::StmtKind::kBarrier;
        barrier.sync_id = program_.num_sync_ops++;
        // Anchor the barrier's provenance on the copy it guards: the one
        // right before a trailing/group-closing barrier, the one right
        // after a leading barrier. Descending insertion order keeps the
        // indices < at[b] valid while we insert.
        const size_t anchor = at[b] == j ? j - 1 : at[b];
        barrier.prov = body[anchor].prov.derived("sync-insertion");
        body.insert(body.begin() + static_cast<long>(at[b]),
                    std::move(barrier));
        ++result.barriers;
      }
      i = j + at.size() - 1;  // skip past the run and inserted barriers
    }
  }

 private:
  // Summarize every region access `s` (recursively) performs.
  void collect_accesses(const ir::Stmt& s,
                        std::vector<PriorAccess>& out) const {
    const rt::RegionForest& f = *program_.forest;
    switch (s.kind) {
      case ir::StmtKind::kIndexLaunch:
        for (const ir::RegionArg& a : s.args) {
          PriorAccess pa;
          pa.partition = a.partition;
          pa.fields = a.fields;
          pa.write = a.privilege != rt::Privilege::kReadOnly;
          pa.aligned =
              a.proj.identity() && f.partition(a.partition).disjoint &&
              s.launch_colors == f.partition(a.partition).subregions.size();
          out.push_back(pa);
        }
        break;
      case ir::StmtKind::kSingleTask:
        // Single tasks touch the roots' master instances, which no
        // inter-shard (partition-to-partition) copy can reach.
        break;
      case ir::StmtKind::kCopy: {
        if (s.copy_src != rt::kNoId) {
          PriorAccess src;
          src.partition = s.copy_src;
          src.fields = s.copy_fields;
          out.push_back(src);
        }
        if (s.copy_dst != rt::kNoId) {
          PriorAccess dst;
          dst.partition = s.copy_dst;
          dst.fields = s.copy_fields;
          dst.write = true;
          out.push_back(dst);
        }
        break;
      }
      case ir::StmtKind::kFill: {
        PriorAccess pa;
        pa.partition = s.fill_dst;
        pa.fields = s.fill_fields;
        pa.write = true;
        out.push_back(pa);
        break;
      }
      case ir::StmtKind::kForTime:
      case ir::StmtKind::kShardBody:
        for (const ir::Stmt& t : s.body) collect_accesses(t, out);
        break;
      case ir::StmtKind::kScalarOp:
      case ir::StmtKind::kBarrier:
      case ir::StmtKind::kIntersect:
      case ir::StmtKind::kCollective:
        break;  // no region accesses
    }
  }

  // May `a` conflict with barrier-relaxed copy `c` on two *different*
  // shards? Copy pair (i, j) is issued by the producer shard owning src
  // color i (sequential semantics on the producer side, paper §3.4): a
  // source-side conflict with an identity launch over the very same
  // disjoint partition is always shard-local, while any conflict with
  // the destination writes can cross shards.
  bool cross_shard_conflict(const PriorAccess& a, const ir::Stmt& c) const {
    if (a.partition == rt::kNoId) return false;  // master instances
    if (!fields_overlap(a.fields, c.copy_fields)) return false;
    // Destination writes land on the producer shard, not the owner of
    // the written color: any shared-instance conflict can cross shards.
    if (a.partition == c.copy_dst) return true;
    // Source reads run on the owner of the read color: a conflict with
    // an aligned launch over the same partition is shard-local.
    if (a.write && a.partition == c.copy_src && !a.aligned) return true;
    return false;
  }
  // Conservative partition-level hazard test between two copies of one
  // run: any read/write or write/write overlap on a shared region root
  // demands an ordering (two folds of one reduction epoch commute).
  bool copies_conflict(const ir::Stmt& a, const ir::Stmt& b) const {
    if (!fields_overlap(a.copy_fields, b.copy_fields)) return false;
    const rt::RegionForest& f = *program_.forest;
    const rt::RegionId a_src = root_of(f, a.copy_src);
    const rt::RegionId a_dst = root_of(f, a.copy_dst);
    const rt::RegionId b_src = root_of(f, b.copy_src);
    const rt::RegionId b_dst = root_of(f, b.copy_dst);
    if (a_dst == b_src || a_src == b_dst) return true;  // RAW / WAR
    if (a_dst == b_dst) {
      const bool commuting = a.copy_reduction && b.copy_reduction &&
                             a.copy_redop == b.copy_redop;
      if (!commuting) return true;  // WAW
    }
    return false;
  }

  ir::Program& program_;
  bool p2p_;
};

}  // namespace

SyncInsertionResult sync_insertion(ir::Program& program, Fragment& fragment,
                                   bool p2p) {
  SyncInserter inserter(program, p2p);
  // Process the whole fragment range; nested bodies handled recursively.
  // Top-level runs of copies in the fragment also get barriers, so wrap
  // the range in a temporary view.
  std::vector<ir::Stmt> view(
      std::make_move_iterator(program.body.begin() +
                              static_cast<long>(fragment.begin)),
      std::make_move_iterator(program.body.begin() +
                              static_cast<long>(fragment.end)));
  inserter.process(view, {}, /*cyclic=*/false);
  program.body.erase(program.body.begin() + static_cast<long>(fragment.begin),
                     program.body.begin() + static_cast<long>(fragment.end));
  program.body.insert(program.body.begin() + static_cast<long>(fragment.begin),
                      std::make_move_iterator(view.begin()),
                      std::make_move_iterator(view.end()));
  fragment.end = fragment.begin + view.size();
  return inserter.result;
}

}  // namespace cr::passes
