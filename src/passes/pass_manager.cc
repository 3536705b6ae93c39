#include "passes/pass_manager.h"

#include "passes/copy_placement.h"
#include "passes/data_replication.h"
#include "passes/hierarchical.h"
#include "passes/intersection_opt.h"
#include "passes/projection_normalize.h"
#include "passes/region_reduction.h"
#include "passes/scalar_reduction.h"
#include "passes/shard_creation.h"
#include "passes/sync_insertion.h"
#include "support/check.h"
#include "support/metrics.h"

namespace cr::passes {

namespace {

// Recursive statement count of a body range (each statement counts 1
// plus its nested body), for the per-pass IR size deltas.
size_t count_stmts(const std::vector<ir::Stmt>& body, size_t begin,
                   size_t end) {
  size_t n = 0;
  for (size_t i = begin; i < end && i < body.size(); ++i) {
    n += 1 + count_stmts(body[i].body, 0, body[i].body.size());
  }
  return n;
}

}  // namespace

const ir::StaticRegionTree& PassContext::oracle() {
  if (!oracle_) {
    oracle_ = make_alias_oracle(*program_, options_.hierarchical);
  }
  return *oracle_;
}

Pass& PassManager::add(std::unique_ptr<Pass> pass) {
  entries_.push_back({std::move(pass), /*enabled=*/true});
  return *entries_.back().pass;
}

bool PassManager::enable(std::string_view name, bool on) {
  for (Entry& e : entries_) {
    if (e.pass->name() == name) {
      e.enabled = on;
      return true;
    }
  }
  return false;
}

bool PassManager::enabled(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.pass->name() == name) return e.enabled;
  }
  return false;
}

void PassManager::run_fragment(ir::Program& program, Fragment fragment,
                               PassContext& ctx) {
  ctx.begin_fragment(fragment);
  ctx.add_stat("fragment.statements", fragment.end - fragment.begin);

  support::MetricsRegistry* metrics = ctx.options().metrics;
  for (Entry& e : entries_) {
    if (!e.enabled) continue;
    // IR size delta per pass (recursive statement count over the
    // fragment), recorded only when a registry is attached: the count
    // walk is pure observation but not free.
    if (metrics != nullptr) {
      const Fragment& f = ctx.fragment();
      metrics
          ->counter(std::string("passes.") + e.pass->name() + ".stmts_in")
          .add(count_stmts(program.body, f.begin, f.end));
    }
    e.pass->run(program, ctx);
    if (metrics != nullptr) {
      const Fragment& f = ctx.fragment();
      metrics
          ->counter(std::string("passes.") + e.pass->name() + ".stmts_out")
          .add(count_stmts(program.body, f.begin, f.end));
    }
    if (observer_) observer_(*e.pass, program, ctx);
  }

  // Splice initialization / intersections before and finalization after
  // the fragment (or the shard launch that replaced it).
  auto at = [&](size_t idx) {
    return program.body.begin() + static_cast<long>(idx);
  };
  const Fragment& f = ctx.fragment();
  program.body.insert(at(f.end),
                      std::make_move_iterator(ctx.finalize().begin()),
                      std::make_move_iterator(ctx.finalize().end()));
  program.body.insert(at(f.begin), std::make_move_iterator(ctx.pre().begin()),
                      std::make_move_iterator(ctx.pre().end()));
  program.body.insert(at(f.begin), std::make_move_iterator(ctx.init().begin()),
                      std::make_move_iterator(ctx.init().end()));
}

namespace {

// §2.2: normalize p[f(i)] arguments to identity projections.
class ProjectionNormalizePass : public Pass {
 public:
  const char* name() const override { return "projection-normalize"; }
  void run(ir::Program& program, PassContext& ctx) override {
    ctx.add_stat("projection-normalize.normalized",
                 projection_normalize(program, ctx.fragment()));
  }
};

// §3.1: per-partition storage + coherence copies.
class DataReplicationPass : public Pass {
 public:
  const char* name() const override { return "data-replication"; }
  void run(ir::Program& program, PassContext& ctx) override {
    DataReplicationResult repl =
        data_replication(program, ctx.fragment(), ctx.oracle());
    ctx.add_stat("data-replication.init_copies", repl.init.size());
    ctx.add_stat("data-replication.inner_copies", repl.inner_copies);
    ctx.add_stat("data-replication.finalize_copies", repl.finalize.size());
    ctx.init() = std::move(repl.init);
    ctx.finalize() = std::move(repl.finalize);
  }
};

// §4.3: reduction instances and reduction copies.
class RegionReductionPass : public Pass {
 public:
  const char* name() const override { return "region-reduction"; }
  void run(ir::Program& program, PassContext& ctx) override {
    ctx.add_stat("region-reduction.rewritten",
                 region_reduction(program, ctx.fragment(), ctx.oracle()));
  }
};

// §3.2: PRE + LICM on the partition-granularity copies (ablation A4).
class CopyPlacementPass : public Pass {
 public:
  const char* name() const override { return "copy-placement"; }
  void run(ir::Program& program, PassContext& ctx) override {
    CopyPlacementResult placed = copy_placement(program, ctx.fragment());
    ctx.add_stat("copy-placement.removed", placed.removed);
    ctx.add_stat("copy-placement.hoisted", placed.hoisted);
  }
};

// §3.3: intersection tables, hoisted in front of the fragment
// (loop-invariant, computed once) — ablation A1.
class IntersectionOptPass : public Pass {
 public:
  const char* name() const override { return "intersection-opt"; }
  void run(ir::Program& program, PassContext& ctx) override {
    IntersectionOptResult isect = intersection_opt(program, ctx.fragment());
    ctx.add_stat("intersection-opt.tables", isect.tables.size());
    ctx.add_stat("intersection-opt.copies_tagged", isect.copies_tagged);
    ctx.pre() = std::move(isect.tables);
  }
};

// §4.4: scalar reductions via dynamic collectives.
class ScalarReductionPass : public Pass {
 public:
  const char* name() const override { return "scalar-reduction"; }
  void run(ir::Program& program, PassContext& ctx) override {
    ScalarReductionResult scalars = scalar_reduction(program, ctx.fragment());
    ctx.add_stat("scalar-reduction.collectives", scalars.collectives);
    CR_CHECK_MSG(scalars.violations.empty(),
                 "scalar replication-safety violation");
  }
};

// §3.4: synchronization (ablation A2 switches p2p copies to barriers).
class SyncInsertionPass : public Pass {
 public:
  const char* name() const override { return "sync-insertion"; }
  void run(ir::Program& program, PassContext& ctx) override {
    SyncInsertionResult sync =
        sync_insertion(program, ctx.fragment(), ctx.options().p2p_sync);
    ctx.add_stat("sync-insertion.p2p_copies", sync.p2p_copies);
    ctx.add_stat("sync-insertion.barriers", sync.barriers);
  }
};

// §3.5: extract the shard task.
class ShardCreationPass : public Pass {
 public:
  const char* name() const override { return "shard-creation"; }
  void run(ir::Program& program, PassContext& ctx) override {
    shard_creation(program, ctx.fragment(), ctx.options().num_shards);
  }
};

}  // namespace

PassManager make_pipeline(const PipelineOptions& options, bool to_spmd) {
  PassManager pm;
  pm.add(std::make_unique<ProjectionNormalizePass>());
  pm.add(std::make_unique<DataReplicationPass>());
  pm.add(std::make_unique<RegionReductionPass>());
  pm.add(std::make_unique<CopyPlacementPass>());
  pm.add(std::make_unique<IntersectionOptPass>());
  pm.add(std::make_unique<ScalarReductionPass>());
  if (to_spmd) {
    pm.add(std::make_unique<SyncInsertionPass>());
    pm.add(std::make_unique<ShardCreationPass>());
  }
  pm.enable("copy-placement", options.copy_placement);    // A4
  pm.enable("intersection-opt", options.intersection_opt);  // A1
  return pm;
}

PipelineReport report_from_stats(const PassContext& ctx) {
  PipelineReport report;
  report.fragment_statements = ctx.stat("fragment.statements");
  report.projections_normalized = ctx.stat("projection-normalize.normalized");
  report.init_copies = ctx.stat("data-replication.init_copies");
  report.inner_copies = ctx.stat("data-replication.inner_copies");
  report.finalize_copies = ctx.stat("data-replication.finalize_copies");
  report.reductions_rewritten = ctx.stat("region-reduction.rewritten");
  report.copies_removed = ctx.stat("copy-placement.removed");
  report.copies_hoisted = ctx.stat("copy-placement.hoisted");
  report.intersection_tables = ctx.stat("intersection-opt.tables");
  report.collectives = ctx.stat("scalar-reduction.collectives");
  report.p2p_copies = ctx.stat("sync-insertion.p2p_copies");
  report.barriers = ctx.stat("sync-insertion.barriers");
  report.stats = ctx.stats();
  return report;
}

}  // namespace cr::passes
