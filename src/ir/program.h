// The program IR: the Regent-analog representation control replication
// transforms (paper §2, Figure 2).
//
// A Program is a list of declarations (tasks, scalars) plus a statement
// body referencing regions and partitions in an rt::RegionForest. Apps
// write only the *source* statement forms (ForTime loops, IndexLaunch,
// SingleTask, ScalarOp); the compiler passes introduce the rest (Copy,
// Fill, Barrier, Intersect, Collective, ShardBody) while transforming the
// program through the stages of Figure 4.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rt/physical.h"
#include "rt/region_tree.h"
#include "rt/task.h"

namespace cr::ir {

using ScalarId = uint32_t;
using TaskId = uint32_t;
using IntersectId = uint32_t;
inline constexpr uint32_t kNoIntersect = UINT32_MAX;

// Stable id of a compiler-inserted synchronization op. The passes that
// emit synchronization (sync_insertion: p2p copies and barriers;
// scalar_reduction: collectives) number them from Program::num_sync_ops
// so the race checker's fault-injection mode can address one mutant at
// a time. kNoSyncId marks statements that are not sync ops.
using SyncId = uint32_t;
inline constexpr SyncId kNoSyncId = UINT32_MAX;

// Provenance of a statement: which user-written source statement it
// descends from and which passes created or rewrote it along the way.
// The builder roots every source statement (source = its position in
// program order, label = loop var / task name); each pass that emits a
// copy or sync op derives its provenance from the statement that caused
// the emission. The executors forward provenance into trace spans so
// runtime copy/sync time can be attributed back to user code.
inline constexpr uint32_t kNoSourceStmt = UINT32_MAX;
struct Provenance {
  uint32_t source = kNoSourceStmt;  // Program::num_source_stmts id
  std::string label;                // the source statement's label
  std::vector<std::string> passes;  // emitting pass, then rewriters

  bool valid() const { return source != kNoSourceStmt; }
  // This chain extended by `pass` (for an op the pass newly emits).
  Provenance derived(const std::string& pass) const {
    Provenance p = *this;
    p.passes.push_back(pass);
    return p;
  }
};

// ---------------------------------------------------------------------
// Kernel interface
// ---------------------------------------------------------------------

// What a task body sees: privilege-checked accessors over its region
// arguments (addressed by global element id), its iteration domain, the
// scalar environment, and a fold slot for scalar reductions.
class TaskContext {
 public:
  virtual ~TaskContext() = default;
  // The point-task's iteration domain (the domain param's subregion).
  virtual const rt::IndexSpace& domain() const = 0;
  // The index space of region parameter `param`.
  virtual const rt::IndexSpace& param_domain(size_t param) const = 0;
  virtual double read_f64(size_t param, rt::FieldId f, uint64_t pt) const = 0;
  virtual void write_f64(size_t param, rt::FieldId f, uint64_t pt,
                         double v) = 0;
  virtual int64_t read_i64(size_t param, rt::FieldId f, uint64_t pt) const = 0;
  virtual void write_i64(size_t param, rt::FieldId f, uint64_t pt,
                         int64_t v) = 0;
  // Fold into a Reduce-privileged parameter.
  virtual void reduce_f64(size_t param, rt::FieldId f, uint64_t pt,
                          double v) = 0;
  virtual double scalar(ScalarId s) const = 0;
  // Fold into this launch's scalar reduction.
  virtual void reduce_scalar(double v) = 0;
};

using KernelFn = std::function<void(TaskContext&)>;

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

struct TaskParam {
  rt::Privilege privilege = rt::Privilege::kReadOnly;
  rt::ReduceOp redop = rt::ReduceOp::kSum;
  std::vector<rt::FieldId> fields;
};

struct TaskDecl {
  TaskId id = 0;
  std::string name;
  std::vector<TaskParam> params;
  // Which region parameter supplies the iteration domain (Regent's
  // `for i in SU`).
  size_t domain_param = 0;
  // Virtual execution time: base + per_element * |domain|, in ns.
  double cost_base_ns = 1000.0;
  double cost_per_elem_ns = 1.0;
  // Real task body; may be empty for virtual-only sweeps.
  KernelFn kernel;
};

struct ScalarDecl {
  ScalarId id = 0;
  std::string name;
  double init = 0.0;
};

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

// Region argument of an index launch: partition[proj(i)].
struct Projection {
  // Identity unless fn is set.
  std::function<uint64_t(uint64_t)> fn;
  std::string name;  // printed form, e.g. "(i+1)%N"
  bool identity() const { return !fn; }
  uint64_t operator()(uint64_t i) const { return fn ? fn(i) : i; }
};

struct RegionArg {
  rt::PartitionId partition = rt::kNoId;
  Projection proj;
  rt::Privilege privilege = rt::Privilege::kReadOnly;
  rt::ReduceOp redop = rt::ReduceOp::kSum;
  std::vector<rt::FieldId> fields;
};

// Scalar reduction performed by an index launch (paper §4.4).
struct ScalarRed {
  ScalarId target = 0;
  rt::ReduceOp op = rt::ReduceOp::kSum;
};

enum class StmtKind : uint8_t {
  kForTime,      // sequential outer loop
  kIndexLaunch,  // forall-style loop of task calls
  kSingleTask,   // one task call on whole regions (outside CR fragments)
  kScalarOp,     // straight-line scalar computation
  // compiler-introduced (kCopy also as an explicit source copy between
  // two partitions of one region tree, see ProgramBuilder::copy):
  kCopy,        // partition <-> partition / root data movement
  kFill,        // initialize partition fields to a constant
  kBarrier,     // full inter-shard barrier (naive sync, Fig. 4c)
  kIntersect,   // compute intersections of two partitions (Fig. 4b line 5)
  kCollective,  // allreduce + broadcast of a scalar (paper §4.4)
  kShardBody,   // the extracted shard task body (Fig. 4d)
};

// How a copy synchronizes across shards (paper §3.4).
enum class SyncMode : uint8_t {
  kNone,  // intra-shard / pre-sharding: ordinary dependence analysis
  kP2P,   // point-to-point pre/postconditions from intersections
};

struct Stmt {
  StmtKind kind = StmtKind::kForTime;
  std::string label;  // for printing/diagnostics

  // kForTime / kShardBody
  uint64_t trip_count = 0;  // ForTime
  std::vector<Stmt> body;

  // kIndexLaunch / kSingleTask
  TaskId task = 0;
  uint64_t launch_colors = 0;             // |I| (IndexLaunch)
  std::vector<RegionArg> args;            // IndexLaunch
  std::vector<rt::RegionId> regions;      // SingleTask param bindings
  std::vector<ScalarId> scalar_args;
  std::optional<ScalarRed> scalar_red;    // IndexLaunch only

  // kScalarOp: writes = fn(reads), evaluated against the scalar env.
  std::vector<ScalarId> scalar_reads, scalar_writes;
  std::function<void(const std::vector<double>& env,
                     std::vector<double>& out)>
      scalar_fn;

  // kCopy: exactly one of {copy_src, src_root} and {copy_dst, dst_root}.
  rt::PartitionId copy_src = rt::kNoId;
  rt::PartitionId copy_dst = rt::kNoId;
  rt::RegionId src_root = rt::kNoId;  // copy from a root region's master
  rt::RegionId dst_root = rt::kNoId;  // copy into a root region's master
  std::vector<rt::FieldId> copy_fields;
  IntersectId isect = kNoIntersect;  // restrict pairs (after §3.3)
  bool copy_reduction = false;
  rt::ReduceOp copy_redop = rt::ReduceOp::kSum;
  SyncMode sync = SyncMode::kNone;

  // kFill
  rt::PartitionId fill_dst = rt::kNoId;
  std::vector<rt::FieldId> fill_fields;
  double fill_value = 0.0;

  // kIntersect
  IntersectId isect_id = kNoIntersect;
  rt::PartitionId isect_src = rt::kNoId;
  rt::PartitionId isect_dst = rt::kNoId;

  // kCollective
  ScalarId coll_scalar = 0;
  rt::ReduceOp coll_op = rt::ReduceOp::kSum;

  // kShardBody
  uint32_t num_shards = 0;

  // Sync-op identity for kBarrier / kCollective / p2p-marked kCopy.
  SyncId sync_id = kNoSyncId;

  // Source-statement ancestry (see Provenance above).
  Provenance prov;
};

// ---------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------

struct Program {
  std::string name;
  rt::RegionForest* forest = nullptr;  // not owned; outlives the program
  std::vector<TaskDecl> tasks;
  std::vector<ScalarDecl> scalars;
  std::vector<Stmt> body;
  // Number of intersection tables allocated by passes.
  uint32_t num_intersects = 0;
  // Number of sync-op ids allocated by passes (see SyncId).
  uint32_t num_sync_ops = 0;
  // Number of user-written source statements (see Provenance).
  uint32_t num_source_stmts = 0;

  const TaskDecl& task(TaskId id) const;
  const ScalarDecl& scalar(ScalarId id) const;
};

// Walk all statements (pre-order), including nested bodies.
void for_each_stmt(const std::vector<Stmt>& body,
                   const std::function<void(const Stmt&)>& fn);
void for_each_stmt(std::vector<Stmt>& body,
                   const std::function<void(Stmt&)>& fn);

}  // namespace cr::ir
