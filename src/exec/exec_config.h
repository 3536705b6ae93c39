// One configuration object for the whole prepare-and-execute path:
// pipeline options, cost model, execution mode, placement and
// instrumentation. Build one struct and hand it to prepare() (see
// implicit_exec.h) or to the Engine directly.
#pragma once

#include "exec/cost_model.h"
#include "ir/program.h"
#include "passes/pipeline.h"
#include "rt/mapper.h"

namespace cr::exec {

enum class ExecMode { kImplicit, kSpmd };

struct ExecConfig {
  // How the source program is transformed before execution
  // (control_replicate for kSpmd, prepare_distributed for kImplicit).
  // pipeline.num_shards == 0 defaults to one shard per node.
  passes::PipelineOptions pipeline;
  CostModel cost;
  ExecMode mode = ExecMode::kSpmd;

  // Placement policy: a rt::mapper_names() entry ("default", "balanced",
  // "adversarial"). The Engine builds its rt::Mapper from it; this field
  // is the only way to configure placement (one-struct rule).
  rt::MapperOptions mapper;

  // Instrumentation sinks. All host-side: enabling any of them leaves
  // the virtual timeline bit-identical (asserted by the
  // analysis-neutrality tests).
  bool trace = false;  // record the timeline (Engine::write_trace)
  bool check = false;  // record accesses + HB graph, run the race checker
  // Fault injection for the checker: delete/weaken the sync op with this
  // id (see ir::SyncId) — the mutant run must then report a race.
  ir::SyncId check_mutate = ir::kNoSyncId;
};

}  // namespace cr::exec
