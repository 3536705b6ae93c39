#include "exec/implicit_exec.h"

#include "support/check.h"

namespace cr::exec {

rt::RuntimeConfig runtime_config(uint32_t nodes, uint32_t cores_per_node,
                                 const CostModel& cost, bool real_data) {
  rt::RuntimeConfig config;
  config.machine.nodes = nodes;
  config.machine.cores_per_node = cores_per_node;
  config.network = cost.network;
  config.real_data = real_data;
  return config;
}

PreparedRun prepare(rt::Runtime& rt, ir::Program source,
                    const ExecConfig& config) {
  ExecConfig cfg = config;
  // Per-pass counters land in the runtime's registry.
  cfg.pipeline.metrics = &rt.metrics();
  PreparedRun out;
  out.program = std::make_unique<ir::Program>(std::move(source));
  if (cfg.mode == ExecMode::kSpmd) {
    if (cfg.pipeline.num_shards == 0) {
      cfg.pipeline.num_shards = rt.machine().nodes();  // one shard per node
    }
    out.report = passes::control_replicate(*out.program, cfg.pipeline);
    CR_CHECK_MSG(out.report.applied, out.report.failure.c_str());
  } else {
    out.report = passes::prepare_distributed(*out.program, cfg.pipeline);
  }
  out.engine = std::make_unique<Engine>(rt, *out.program, cfg);
  return out;
}

}  // namespace cr::exec
