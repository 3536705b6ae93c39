#include "ir/builder.h"

#include "support/check.h"

namespace cr::ir {

ProgramBuilder::ProgramBuilder(rt::RegionForest& forest, std::string name) {
  program_.name = std::move(name);
  program_.forest = &forest;
}

TaskId ProgramBuilder::task(std::string name, std::vector<TaskParam> params,
                            double cost_base_ns, double cost_per_elem_ns,
                            KernelFn kernel, size_t domain_param) {
  CR_CHECK(domain_param < params.size());
  TaskDecl decl;
  decl.id = static_cast<TaskId>(program_.tasks.size());
  decl.name = std::move(name);
  decl.params = std::move(params);
  decl.domain_param = domain_param;
  decl.cost_base_ns = cost_base_ns;
  decl.cost_per_elem_ns = cost_per_elem_ns;
  decl.kernel = std::move(kernel);
  program_.tasks.push_back(std::move(decl));
  return program_.tasks.back().id;
}

ScalarId ProgramBuilder::scalar(std::string name, double init) {
  ScalarDecl decl;
  decl.id = static_cast<ScalarId>(program_.scalars.size());
  decl.name = std::move(name);
  decl.init = init;
  program_.scalars.push_back(std::move(decl));
  return program_.scalars.back().id;
}

std::vector<Stmt>& ProgramBuilder::current() {
  return open_.empty() ? program_.body : open_.back()->body;
}

void ProgramBuilder::root_provenance(Stmt& s) {
  s.prov.source = program_.num_source_stmts++;
  s.prov.label = s.label;
}

void ProgramBuilder::begin_for_time(uint64_t trip_count, std::string label) {
  Stmt s;
  s.kind = StmtKind::kForTime;
  s.trip_count = trip_count;
  s.label = std::move(label);
  root_provenance(s);
  current().push_back(std::move(s));
  open_.push_back(&current().back());
}

void ProgramBuilder::end_for_time() {
  CR_CHECK_MSG(!open_.empty(), "end_for_time without begin_for_time");
  open_.pop_back();
}

void ProgramBuilder::index_launch(TaskId task, uint64_t colors,
                                  std::vector<RegionArg> args,
                                  std::vector<ScalarId> scalar_args) {
  CR_CHECK(task < program_.tasks.size());
  CR_CHECK_MSG(args.size() == program_.tasks[task].params.size(),
               "argument count mismatch");
  // Check privilege strictness: argument privileges must match the task's
  // declared parameter privileges exactly (the declaration is the summary
  // the compiler analyzes — paper §2.1).
  for (size_t k = 0; k < args.size(); ++k) {
    const TaskParam& p = program_.tasks[task].params[k];
    CR_CHECK_MSG(args[k].privilege == p.privilege && args[k].redop == p.redop,
                 "argument privilege differs from task declaration");
    args[k].fields = p.fields;
  }
  Stmt s;
  s.kind = StmtKind::kIndexLaunch;
  s.task = task;
  s.launch_colors = colors;
  s.args = std::move(args);
  s.scalar_args = std::move(scalar_args);
  s.label = program_.tasks[task].name;
  root_provenance(s);
  current().push_back(std::move(s));
}

void ProgramBuilder::index_launch_red(TaskId task, uint64_t colors,
                                      std::vector<RegionArg> args,
                                      ScalarRed red,
                                      std::vector<ScalarId> scalar_args) {
  index_launch(task, colors, std::move(args), std::move(scalar_args));
  current().back().scalar_red = red;
}

void ProgramBuilder::single_task(TaskId task,
                                 std::vector<rt::RegionId> regions,
                                 std::vector<ScalarId> scalar_args) {
  CR_CHECK(task < program_.tasks.size());
  CR_CHECK(regions.size() == program_.tasks[task].params.size());
  Stmt s;
  s.kind = StmtKind::kSingleTask;
  s.task = task;
  s.regions = std::move(regions);
  s.scalar_args = std::move(scalar_args);
  s.label = program_.tasks[task].name;
  root_provenance(s);
  current().push_back(std::move(s));
}

void ProgramBuilder::copy(rt::PartitionId src, rt::PartitionId dst,
                          std::vector<rt::FieldId> fields) {
  const rt::RegionForest& f = *program_.forest;
  CR_CHECK_MSG(f.region(f.partition(src).parent).root ==
                   f.region(f.partition(dst).parent).root,
               "copy endpoints must share a region tree");
  Stmt s;
  s.kind = StmtKind::kCopy;
  s.copy_src = src;
  s.copy_dst = dst;
  s.copy_fields = std::move(fields);
  s.label = "copy";
  root_provenance(s);
  current().push_back(std::move(s));
}

void ProgramBuilder::scalar_op(
    std::vector<ScalarId> reads, std::vector<ScalarId> writes,
    std::function<void(const std::vector<double>&, std::vector<double>&)> fn,
    std::string label) {
  Stmt s;
  s.kind = StmtKind::kScalarOp;
  s.scalar_reads = std::move(reads);
  s.scalar_writes = std::move(writes);
  s.scalar_fn = std::move(fn);
  s.label = std::move(label);
  root_provenance(s);
  current().push_back(std::move(s));
}

RegionArg ProgramBuilder::arg(rt::PartitionId partition, rt::Privilege priv,
                              std::vector<rt::FieldId> fields,
                              rt::ReduceOp redop) {
  RegionArg a;
  a.partition = partition;
  a.privilege = priv;
  a.redop = redop;
  a.fields = std::move(fields);
  return a;
}

RegionArg ProgramBuilder::arg_proj(rt::PartitionId partition,
                                   rt::Privilege priv,
                                   std::vector<rt::FieldId> fields,
                                   std::function<uint64_t(uint64_t)> proj,
                                   std::string proj_name,
                                   rt::ReduceOp redop) {
  RegionArg a = arg(partition, priv, std::move(fields), redop);
  a.proj.fn = std::move(proj);
  a.proj.name = std::move(proj_name);
  return a;
}

Program ProgramBuilder::finish() {
  CR_CHECK_MSG(open_.empty(), "unclosed for_time loop");
  CR_CHECK(!finished_);
  finished_ = true;
  return std::move(program_);
}

}  // namespace cr::ir
