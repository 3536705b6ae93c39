#include "passes/applicability.h"

#include "ir/static_region_tree.h"
#include "support/check.h"

namespace cr::passes {

namespace {

bool fields_overlap(const std::vector<rt::FieldId>& a,
                    const std::vector<rt::FieldId>& b) {
  for (rt::FieldId f : a) {
    for (rt::FieldId g : b) {
      if (f == g) return true;
    }
  }
  return false;
}

bool launch_replicable(const ir::Program& program, const ir::Stmt& s,
                       std::string* why) {
  const ir::TaskDecl& decl = program.task(s.task);
  for (size_t k = 0; k < s.args.size(); ++k) {
    const ir::RegionArg& a = s.args[k];
    const rt::PartitionNode& pn = program.forest->partition(a.partition);
    // Loop-carried dependencies other than reductions are not allowed:
    // a write through an aliased partition would race across iterations
    // of the (parallel) inner loop.
    if (rt::privilege_writes(a.privilege) && !pn.disjoint) {
      if (why) {
        *why = "launch " + decl.name + ": writes aliased partition " +
               pn.name;
      }
      return false;
    }
    if (rt::privilege_writes(a.privilege) && !a.proj.identity()) {
      if (why) {
        *why = "launch " + decl.name + ": writes through a projection";
      }
      return false;
    }
    // Region arguments must have the form p[f(i)] with enough colors.
    if (a.proj.identity() && pn.subregions.size() < s.launch_colors) {
      if (why) {
        *why = "launch " + decl.name + ": partition " + pn.name +
               " narrower than launch domain";
      }
      return false;
    }
  }

  // The inner loop must be interference-free: two *different* point
  // tasks must never touch the same element with conflicting privileges.
  // For a conflicting argument pair p[i], q[g(i)] this holds statically
  // when p == q with identity projections on both (a task touching its
  // own subregion twice), or when the partitions are provably disjoint.
  ir::StaticRegionTree tree(*program.forest);
  for (size_t k1 = 0; k1 < s.args.size(); ++k1) {
    for (size_t k2 = k1; k2 < s.args.size(); ++k2) {
      const ir::RegionArg& a = s.args[k1];
      const ir::RegionArg& b = s.args[k2];
      if (!fields_overlap(a.fields, b.fields)) continue;
      if (!rt::privileges_conflict(a.privilege, a.redop, b.privilege,
                                   b.redop)) {
        continue;
      }
      if (a.partition == b.partition) {
        if (a.proj.identity() && b.proj.identity()) continue;  // self-use
        if (why) {
          *why = "launch " + decl.name +
                 ": projected access interferes across iterations";
        }
        return false;
      }
      if (tree.partitions_may_alias(a.partition, b.partition)) {
        if (why) {
          *why = "launch " + decl.name + ": arguments " +
                 program.forest->partition(a.partition).name + " and " +
                 program.forest->partition(b.partition).name +
                 " interfere across iterations";
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool statement_replicable(const ir::Program& program, const ir::Stmt& stmt,
                          std::string* why) {
  switch (stmt.kind) {
    case ir::StmtKind::kIndexLaunch:
      return launch_replicable(program, stmt, why);
    case ir::StmtKind::kScalarOp:
      // Scalars are replicated across shards; a pure function of
      // replicated inputs is itself replicable (paper §4.4).
      return true;
    case ir::StmtKind::kForTime:
      for (const ir::Stmt& c : stmt.body) {
        if (!statement_replicable(program, c, why)) return false;
      }
      return true;
    case ir::StmtKind::kSingleTask:
      if (why) *why = "single task " + program.task(stmt.task).name;
      return false;
    case ir::StmtKind::kCopy:
      // An explicit partition-to-partition copy moves no values, only
      // instance contents; the passes treat it like their own copies.
      if (stmt.copy_src != rt::kNoId && stmt.copy_dst != rt::kNoId &&
          !stmt.copy_reduction) {
        return true;
      }
      [[fallthrough]];
    default:
      // Compiler-introduced forms are not expected in source programs.
      if (why) *why = "unexpected compiler statement in source program";
      return false;
  }
}

namespace {

bool contains_launch(const ir::Stmt& s) {
  if (s.kind == ir::StmtKind::kIndexLaunch) return true;
  for (const ir::Stmt& c : s.body) {
    if (contains_launch(c)) return true;
  }
  return false;
}

}  // namespace

std::vector<Fragment> find_fragments(const ir::Program& program,
                                     std::string* why) {
  std::vector<Fragment> out;
  std::string last_reason;
  size_t i = 0;
  const size_t n = program.body.size();
  while (i < n) {
    std::string reason;
    if (!statement_replicable(program, program.body[i], &reason)) {
      if (!reason.empty()) last_reason = reason;
      ++i;
      continue;
    }
    size_t j = i;
    bool has_launch = false;
    while (j < n && statement_replicable(program, program.body[j], nullptr)) {
      has_launch = has_launch || contains_launch(program.body[j]);
      ++j;
    }
    // Runs without any task launch (pure scalar code) replicate
    // trivially and need no shards.
    if (has_launch) out.push_back(Fragment{i, j});
    i = j;
  }
  if (out.empty() && why != nullptr) {
    *why = last_reason.empty() ? "no replicable statements" : last_reason;
  }
  return out;
}

}  // namespace cr::passes
