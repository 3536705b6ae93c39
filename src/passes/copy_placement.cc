#include "passes/copy_placement.h"

#include <algorithm>

#include "support/check.h"

namespace cr::passes {

namespace {

bool copy_has_field(const ir::Stmt& s, rt::FieldId f) {
  return std::find(s.copy_fields.begin(), s.copy_fields.end(), f) !=
         s.copy_fields.end();
}

bool reads_field(const AccessSummary& sum, rt::PartitionId p, rt::FieldId f) {
  auto it = sum.reads.find(p);
  return it != sum.reads.end() && it->second.count(f) > 0;
}

bool writes_field(const AccessSummary& sum, rt::PartitionId p,
                  rt::FieldId f) {
  auto it = sum.writes.find(p);
  return it != sum.writes.end() && it->second.count(f) > 0;
}

class Placement {
 public:
  explicit Placement(ir::Program& program) : program_(program) {}

  CopyPlacementResult result;

  // Process one body; `is_loop` enables the back-edge wraparound in the
  // redundancy scan.
  void process(std::vector<ir::Stmt>& body, bool is_loop) {
    // Children first: hoisting out of an inner loop can expose
    // redundancy at this level.
    for (size_t i = 0; i < body.size(); ++i) {
      if (body[i].kind == ir::StmtKind::kForTime) {
        process(body[i].body, /*is_loop=*/true);
        hoist_invariant(body, i);
      } else if (body[i].kind == ir::StmtKind::kShardBody) {
        process(body[i].body, /*is_loop=*/false);
      }
    }
    eliminate_dead(body, is_loop);
  }

 private:
  // --- loop-invariant code motion -----------------------------------

  void hoist_invariant(std::vector<ir::Stmt>& parent, size_t& loop_idx) {
    // Every hoist inserts into `parent`, which may reallocate it: the
    // loop is re-taken by index on each iteration, never held across.
    for (size_t c = 0; c < parent[loop_idx].body.size();) {
      std::vector<ir::Stmt>& body = parent[loop_idx].body;
      if (!hoistable(body, c)) {
        ++c;
        continue;
      }
      ir::Stmt copy = std::move(body[c]);
      body.erase(body.begin() + static_cast<long>(c));
      if (copy.prov.valid()) copy.prov.passes.push_back("copy-placement");
      parent.insert(parent.begin() + static_cast<long>(loop_idx),
                    std::move(copy));
      ++loop_idx;  // the loop moved one slot right
      ++result.hoisted;
    }
  }

  bool hoistable(const std::vector<ir::Stmt>& body, size_t c) const {
    const ir::Stmt& copy = body[c];
    if (copy.kind != ir::StmtKind::kCopy || copy.copy_reduction) return false;
    if (copy.copy_src == rt::kNoId || copy.copy_dst == rt::kNoId) {
      return false;  // root-endpoint copies stay where the pipeline put them
    }
    for (size_t j = 0; j < body.size(); ++j) {
      if (j == c) continue;
      AccessSummary sum = summarize(body[j]);
      for (rt::FieldId f : copy.copy_fields) {
        // Source must be loop-invariant; destination must have no other
        // writer in the loop (another writer interleaving with the copy
        // would observe different intermediate states after hoisting).
        if (writes_field(sum, copy.copy_src, f)) return false;
        if (writes_field(sum, copy.copy_dst, f)) return false;
      }
    }
    return true;
  }

  // --- dead / redundant copy elimination ----------------------------

  void eliminate_dead(std::vector<ir::Stmt>& body, bool is_loop) {
    // Per-statement summaries at this nesting level (nested loops are
    // conservative compound reads/writes).
    std::vector<AccessSummary> sums;
    sums.reserve(body.size());
    for (const ir::Stmt& s : body) sums.push_back(summarize(s));

    for (size_t k = 0; k < body.size();) {
      ir::Stmt& c = body[k];
      if (c.kind != ir::StmtKind::kCopy || c.copy_reduction ||
          c.copy_src == rt::kNoId || c.copy_dst == rt::kNoId) {
        ++k;
        continue;
      }
      std::vector<rt::FieldId> live;
      for (rt::FieldId f : c.copy_fields) {
        if (field_live(body, sums, k, f, is_loop)) live.push_back(f);
      }
      if (live.size() == c.copy_fields.size()) {
        ++k;
        continue;
      }
      result.removed += c.copy_fields.size() - live.size();
      if (live.empty()) {
        body.erase(body.begin() + static_cast<long>(k));
        sums.erase(sums.begin() + static_cast<long>(k));
      } else {
        c.copy_fields = std::move(live);
        ++k;
      }
    }
  }

  // Is field f of the plain copy at index k observable before an
  // identical copy or a full overwrite kills it?
  bool field_live(const std::vector<ir::Stmt>& body,
                  const std::vector<AccessSummary>& sums, size_t k,
                  rt::FieldId f, bool is_loop) const {
    const ir::Stmt& c = body[k];
    const size_t n = body.size();
    const size_t steps = is_loop ? n - 1 : n - k - 1;
    for (size_t d = 1; d <= steps; ++d) {
      const size_t j = (k + d) % n;
      if (!is_loop && j <= k) break;
      const ir::Stmt& s = body[j];
      // Reads win over kills within one statement (read-modify-write).
      if (reads_field(sums[j], c.copy_dst, f)) return true;
      // An identical copy rewrites exactly the same element set.
      if (s.kind == ir::StmtKind::kCopy && !s.copy_reduction &&
          s.copy_src == c.copy_src && s.copy_dst == c.copy_dst &&
          copy_has_field(s, f)) {
        return false;
      }
      // A task-side write to the whole partition overwrites every
      // subregion. (Copies from other sources only overwrite their own
      // intersection — not a kill.)
      if (s.kind == ir::StmtKind::kIndexLaunch &&
          writes_field(sums[j], c.copy_dst, f)) {
        return false;
      }
    }
    return true;  // escapes the body (finalization, post-loop reads)
  }

  ir::Program& program_;
};

}  // namespace

CopyPlacementResult copy_placement(ir::Program& program, Fragment& fragment) {
  Placement pl(program);
  // Treat the top-level fragment as a straight-line body: build a view,
  // process, and write back. Statements can move across the fragment
  // boundary only via hoisting out of top-level loops, which inserts
  // *inside* the range, so the view round-trips safely.
  std::vector<ir::Stmt> view(
      std::make_move_iterator(program.body.begin() +
                              static_cast<long>(fragment.begin)),
      std::make_move_iterator(program.body.begin() +
                              static_cast<long>(fragment.end)));
  pl.process(view, /*is_loop=*/false);
  program.body.erase(program.body.begin() + static_cast<long>(fragment.begin),
                     program.body.begin() + static_cast<long>(fragment.end));
  program.body.insert(program.body.begin() + static_cast<long>(fragment.begin),
                      std::make_move_iterator(view.begin()),
                      std::make_move_iterator(view.end()));
  fragment.end = fragment.begin + view.size();
  return pl.result;
}

}  // namespace cr::passes
