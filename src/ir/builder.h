// Fluent builder for source programs: the public API applications use to
// express the implicitly parallel form (the paper's Figure 2). Only the
// source statement kinds (and explicit partition-to-partition copies) can
// be built here; the other compiler-introduced forms are produced by the
// passes.
#pragma once

#include <string>
#include <vector>

#include "ir/program.h"

namespace cr::ir {

class ProgramBuilder {
 public:
  ProgramBuilder(rt::RegionForest& forest, std::string name);

  // --- declarations ---

  TaskId task(std::string name, std::vector<TaskParam> params,
              double cost_base_ns, double cost_per_elem_ns, KernelFn kernel,
              size_t domain_param = 0);

  ScalarId scalar(std::string name, double init = 0.0);

  // --- statements (appended to the innermost open body) ---

  // Open/close a sequential time loop.
  void begin_for_time(uint64_t trip_count, std::string label = "t");
  void end_for_time();

  // Launch `colors` point tasks of `task`.
  void index_launch(TaskId task, uint64_t colors, std::vector<RegionArg> args,
                    std::vector<ScalarId> scalar_args = {});
  // Same, folding each point task's reduce_scalar() into `red.target`.
  void index_launch_red(TaskId task, uint64_t colors,
                        std::vector<RegionArg> args, ScalarRed red,
                        std::vector<ScalarId> scalar_args = {});

  // Call `task` once on concrete regions (init/output steps).
  void single_task(TaskId task, std::vector<rt::RegionId> regions,
                   std::vector<ScalarId> scalar_args = {});

  // Explicit copy of `fields` from partition `src` into partition `dst`
  // of the same region tree. Both name the same logical data, so the
  // copy changes no values; it refreshes `dst`'s instances from `src`'s,
  // like the copies data replication inserts.
  void copy(rt::PartitionId src, rt::PartitionId dst,
            std::vector<rt::FieldId> fields);

  // Straight-line scalar computation: writes = fn(env).
  void scalar_op(std::vector<ScalarId> reads, std::vector<ScalarId> writes,
                 std::function<void(const std::vector<double>&,
                                    std::vector<double>&)>
                     fn,
                 std::string label = "scalar");

  // Convenience for region arguments.
  static RegionArg arg(rt::PartitionId partition, rt::Privilege priv,
                       std::vector<rt::FieldId> fields,
                       rt::ReduceOp redop = rt::ReduceOp::kSum);
  static RegionArg arg_proj(rt::PartitionId partition, rt::Privilege priv,
                            std::vector<rt::FieldId> fields,
                            std::function<uint64_t(uint64_t)> proj,
                            std::string proj_name,
                            rt::ReduceOp redop = rt::ReduceOp::kSum);

  Program finish();

 private:
  std::vector<Stmt>& current();
  // Stamp a fresh source-statement id on a to-be-appended statement.
  void root_provenance(Stmt& s);
  Program program_;
  // Stack of open ForTime bodies, as indices into the enclosing body.
  std::vector<Stmt*> open_;
  bool finished_ = false;
};

}  // namespace cr::ir
