// The one prepare-and-execute entry point for both execution modes:
// prepare() transforms the source program per ExecConfig::mode and binds
// an Engine to the result.
//
//  - kSpmd ("Regent with CR"): the full control replication pipeline,
//    then one long-running shard control thread per node.
//  - kImplicit ("Regent w/o CR"): distributed-memory preparation only
//    (projection normalization, data replication, reductions, placement,
//    intersections — the work Legion's runtime performs), then a single
//    control thread on node 0 that issues every point task and copy.
#pragma once

#include <memory>

#include "exec/engine.h"
#include "passes/pipeline.h"

namespace cr::exec {

// A transformed program plus the engine bound to it. Heap-allocates the
// program so the engine's reference stays valid across moves.
struct PreparedRun {
  std::unique_ptr<ir::Program> program;
  passes::PipelineReport report;
  std::unique_ptr<Engine> engine;

  ExecutionResult run() { return engine->run(); }
};

// Convenience: a runtime configuration consistent with a cost model.
rt::RuntimeConfig runtime_config(uint32_t nodes, uint32_t cores_per_node,
                                 const CostModel& cost, bool real_data);

// The one entry point: transforms `source` per config.mode (the full
// control-replication pipeline for kSpmd, distributed-memory preparation
// for kImplicit) and binds an engine with the configured cost model and
// instrumentation. config.pipeline.num_shards == 0 defaults to one shard
// per node. The pass counters always land in rt.metrics().
PreparedRun prepare(rt::Runtime& rt, ir::Program source,
                    const ExecConfig& config);

}  // namespace cr::exec
