#include "passes/pipeline.h"

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ir/static_region_tree.h"
#include "ir/verify.h"
#include "passes/applicability.h"
#include "passes/copy_placement.h"
#include "passes/data_replication.h"
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

// The passes of paper §3 over one fragment, in order, then the splices:
// initialization and intersection tables go in front of the fragment,
// finalization after it (or after the shard launch that replaced it).
// Passes update `fragment.end` as they insert or remove statements.
void replicate_fragment(ir::Program& program, Fragment fragment,
                        const PipelineOptions& options, bool to_spmd,
                        const PassObserver& observer) {
  support::MetricsRegistry* metrics = options.metrics;
  const char* pass = "fragment";  // whose counters count() records
  // Records `value` as "passes.<pass>.<counter>".
  auto count = [&](const char* counter, size_t value) {
    if (metrics != nullptr) {
      metrics->counter(std::string("passes.") + pass + "." + counter)
          .add(value);
    }
  };
  // Runs `body` as pass `name`, then fires the observer. The IR size
  // walks are pure observation but not free, so they happen only when a
  // registry is attached.
  auto run_pass = [&](const char* name, auto&& body) {
    pass = name;
    auto stmts = [&] {
      return count_stmts(program.body, fragment.begin, fragment.end);
    };
    if (metrics != nullptr) count("stmts_in", stmts());
    body();
    if (metrics != nullptr) count("stmts_out", stmts());
    if (observer) observer(name, program);
  };
  count("statements", fragment.end - fragment.begin);

  // Ablation A3: flat aliasing when !hierarchical.
  const ir::StaticRegionTree oracle(*program.forest, options.hierarchical);
  std::vector<ir::Stmt> init;
  std::vector<ir::Stmt> pre;
  std::vector<ir::Stmt> finalize;

  // §2.2: normalize p[f(i)] arguments to identity projections.
  run_pass("projection-normalize", [&] {
    count("normalized", projection_normalize(program, fragment));
  });
  // §3.1: per-partition storage + coherence copies.
  run_pass("data-replication", [&] {
    DataReplicationResult repl = data_replication(program, fragment, oracle);
    count("init_copies", repl.init.size());
    count("inner_copies", repl.inner_copies);
    count("finalize_copies", repl.finalize.size());
    init = std::move(repl.init);
    finalize = std::move(repl.finalize);
  });
  // §4.3: reduction instances and reduction copies.
  run_pass("region-reduction", [&] {
    count("rewritten", region_reduction(program, fragment, oracle));
  });
  // §3.2: PRE + LICM on the partition-granularity copies (ablation A4).
  if (options.copy_placement) {
    run_pass("copy-placement", [&] {
      CopyPlacementResult placed = copy_placement(program, fragment);
      count("removed", placed.removed);
      count("hoisted", placed.hoisted);
    });
  }
  // §3.3: intersection tables, hoisted in front of the fragment
  // (loop-invariant, computed once) — ablation A1.
  if (options.intersection_opt) {
    run_pass("intersection-opt", [&] {
      IntersectionOptResult isect = intersection_opt(program, fragment);
      count("tables", isect.tables.size());
      count("copies_tagged", isect.copies_tagged);
      pre = std::move(isect.tables);
    });
  }
  // §4.4: scalar reductions via dynamic collectives.
  run_pass("scalar-reduction", [&] {
    ScalarReductionResult scalars = scalar_reduction(program, fragment);
    count("collectives", scalars.collectives);
    CR_CHECK_MSG(scalars.violations.empty(),
                 "scalar replication-safety violation");
  });
  if (to_spmd) {
    // §3.4: synchronization (ablation A2 switches p2p copies to
    // barriers).
    run_pass("sync-insertion", [&] {
      SyncInsertionResult sync =
          sync_insertion(program, fragment, options.p2p_sync);
      count("p2p_copies", sync.p2p_copies);
      count("barriers", sync.barriers);
    });
    // §3.5: extract the shard task.
    run_pass("shard-creation", [&] {
      shard_creation(program, fragment, options.num_shards);
    });
  }

  auto at = [&](size_t idx) {
    return program.body.begin() + static_cast<long>(idx);
  };
  program.body.insert(at(fragment.end),
                      std::make_move_iterator(finalize.begin()),
                      std::make_move_iterator(finalize.end()));
  program.body.insert(at(fragment.begin), std::make_move_iterator(pre.begin()),
                      std::make_move_iterator(pre.end()));
  program.body.insert(at(fragment.begin),
                      std::make_move_iterator(init.begin()),
                      std::make_move_iterator(init.end()));
}

PipelineReport run_pipeline(ir::Program& program,
                            const PipelineOptions& options, bool to_spmd,
                            const PassObserver& observer) {
  ir::verify_or_die(program);

  PipelineReport report;
  std::string why;
  std::vector<Fragment> fragments = find_fragments(program, &why);
  if (fragments.empty()) {
    report.failure = why;
    return report;
  }

  // Transform back to front so earlier fragments' indices stay valid
  // while later ones grow the statement list.
  for (auto it = fragments.rbegin(); it != fragments.rend(); ++it) {
    replicate_fragment(program, *it, options, to_spmd, observer);
  }

  if (to_spmd) ir::verify_or_die(program);
  report.applied = true;
  return report;
}

}  // namespace

PipelineReport control_replicate(ir::Program& program,
                                 const PipelineOptions& options,
                                 const PassObserver& observer) {
  return run_pipeline(program, options, /*to_spmd=*/true, observer);
}

PipelineReport prepare_distributed(ir::Program& program,
                                   const PipelineOptions& options,
                                   const PassObserver& observer) {
  return run_pipeline(program, options, /*to_spmd=*/false, observer);
}

}  // namespace cr::passes
