// The control replication pipeline: applies the passes of paper §3 in
// order and produces the SPMD program of Figure 4d.
//
//   applicability -> projection normalization -> data replication ->
//   region reductions -> copy placement (PRE + LICM) -> intersection
//   optimization -> scalar reductions -> synchronization insertion ->
//   shard creation.
//
// Every optimization can be disabled independently for the ablation
// studies through PipelineOptions, the one configuration route;
// disabling correctness-relevant stages falls back to the
// naive-but-correct form (all-pairs copies, barrier synchronization),
// never to an incorrect program.
#pragma once

#include <functional>
#include <string>

#include "ir/program.h"

namespace cr::support {
class MetricsRegistry;
}  // namespace cr::support

namespace cr::passes {

struct PipelineOptions {
  // 0 = auto (one shard per node, set by the SPMD executor).
  uint32_t num_shards = 0;
  bool copy_placement = true;    // §3.2 (ablation A4)
  bool intersection_opt = true;  // §3.3 (ablation A1)
  bool p2p_sync = true;          // §3.4 (ablation A2; false = barriers)
  bool hierarchical = true;      // §4.5 (ablation A3; false = flat aliasing)
  // When set, every pass that runs records its counters and IR size
  // delta (recursive statement count before/after, "stmts_in" /
  // "stmts_out") here as "passes.<pass>.<counter>", summed over
  // fragments (observability only; never read by the passes).
  support::MetricsRegistry* metrics = nullptr;
};

// Whether control replication applied. The pass counters (copies
// inserted, removed and hoisted, tables, collectives, p2p copies,
// barriers) go to PipelineOptions::metrics.
struct PipelineReport {
  bool applied = false;
  std::string failure;  // why CR was not applied
};

// Called after every pass that runs, with the pass name and the program
// in its post-pass state (before the fragment's init/pre/finalize copies
// are spliced in). The golden IR-snapshot tests hook in here.
using PassObserver =
    std::function<void(const char* pass, const ir::Program& program)>;

// Transform `program` in place. Returns the report; when the program is
// not replicable it is left untouched and report.applied is false.
PipelineReport control_replicate(ir::Program& program,
                                 const PipelineOptions& options,
                                 const PassObserver& observer = {});

// The distributed-memory preparation *without* control replication:
// projection normalization, data replication, reductions, placement and
// intersections, but no synchronization insertion and no shards. This is
// what the implicit executor interprets — it corresponds to the work the
// Legion runtime performs from a single control thread when CR is off
// (every copy and every point task issued centrally).
PipelineReport prepare_distributed(ir::Program& program,
                                   const PipelineOptions& options,
                                   const PassObserver& observer = {});

}  // namespace cr::passes
