// Engine::Impl: the engine's private state and statement handlers.
//
// The unroll walks the program once, in lockstep across control contexts
// (the main task, or one per shard), and wires every operation into the
// simulator. Every op is built from the same shared steps:
//
//   bind its uses (instance, privilege, fields)
//   -> sync_pre      instance-sync preconditions (paper §3.4)
//   -> depend        dynamic dependence analysis (implicit mode only)
//   -> note_uses     register the op as a user of each instance
//   -> capture       bind the scalar versions it reads
//   -> charge        the issue cost on the control thread
//   -> log_uses      race-checker accesses (ExecConfig::check)
//   -> spawn_on / spawn_task, then track the completion.
//
// Tasks run them in this order. A fill or copy completes with the event
// its spawn or transfer returns, so it registers and logs after that.
//
// engine.cc holds the state's shared steps (instances, instance sync,
// scalar environments, checker log), the exec_stmt dispatch and the
// public API. The handlers live with the steps they share:
// engine_tasks.cc (launches, single tasks, fills, the kernel context),
// engine_copies.cc (intersections, copy tables, copies, the shard
// launch) and engine_sync.cc (barriers, collectives, scalar ops).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/access_log.h"
#include "exec/engine.h"
#include "exec/live_ops.h"
#include "sim/event_graph.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace cr::exec {

struct Engine::Impl {
  // Env id of the main/implicit control task (shards use their index).
  static constexpr uint32_t kMainEnv = UINT32_MAX;

  Impl(rt::Runtime& rt, const ir::Program& program, const ExecConfig& config);
  ~Impl();

  rt::RegionForest& forest() { return rt_.forest(); }
  sim::Simulator& sim() { return rt_.sim(); }
  support::Tracer* tracer() { return rt_.sim().tracer(); }

  // Attribute the span producing `e` to the statement's provenance root
  // (copy/sync rollup by user source statement). Purely observational;
  // no-op without a tracer or when the statement carries no provenance.
  void attribute(const sim::Event& e, const ir::Stmt& s) {
    support::Tracer* t = tracer();
    if (t == nullptr || !s.prov.valid()) return;
    t->attribute(e.uid(), s.prov.source, s.prov.label);
  }

  static sim::Time ns(double v) {
    return v <= 0 ? 0 : static_cast<sim::Time>(v);
  }

  // --- scalar environments (versioned, deferred futures) --------------------

  // Every control context evolves its own copy of each scalar. A shard
  // launch hands every shard the main task's latest versions, and after
  // the shard body the main task takes shard 0's: the shards compute
  // identical values (paper §4.4: scalars are replicated).
  struct ScalarVersion {
    std::shared_ptr<double> value;
    sim::Event ready;  // value valid once triggered
  };
  using ScalarEnv = std::vector<ScalarVersion>;  // latest, per scalar id
  ScalarEnv main_env_;
  std::vector<ScalarEnv> shard_envs_;  // indexed by shard
  ScalarEnv& env(uint32_t id) {
    return id == kMainEnv ? main_env_ : shard_envs_[id];
  }

  using Captures =
      std::vector<std::pair<ir::ScalarId, std::shared_ptr<double>>>;

  // Bind the latest versions of `ids` in `env`: their readys join `pre`,
  // their cells are what the op reads once they fire. An op that reads
  // no scalar gets nullptr.
  std::shared_ptr<Captures> capture(const std::vector<ir::ScalarId>& ids,
                                    uint32_t env, std::vector<sim::Event>& pre);
  // Start a new version of `s` in `env`, valid once `ready` triggers;
  // returns the cell its producer fills.
  std::shared_ptr<double> new_version(uint32_t env, ir::ScalarId s,
                                      sim::Event ready);

  // --- control contexts -----------------------------------------------------

  // One per control thread walking the program: the main task, or one
  // shard. All contexts advance through the statement list in lockstep so
  // globally shared state (instance sync, collectives, barriers) observes
  // operations in logical program order.
  struct Ctx {
    sim::Processor* proc = nullptr;
    uint32_t node = 0;
    uint32_t shard = kMainEnv;  // also the scalar env id
    sim::Event last;            // last issued control segment
    std::vector<sim::Event> outstanding;  // ops issued since last barrier
  };

  // The colors of a `colors`-wide launch that `ctx` issues: all of them
  // on the main task, the shard's block otherwise — the blocked launch
  // ownership of paper §3.5. Deliberately NOT a mapper decision: a
  // non-default mapper changes placement, never issue ownership.
  static rt::BlockRange owned_colors(uint64_t colors, const Ctx& ctx,
                                     uint32_t num_shards) {
    if (ctx.shard == kMainEnv) return {0, colors};
    return rt::block_range(colors, num_shards, ctx.shard);
  }

  // Charge control-plane time to the context's processor. `what` labels
  // the interval in traces; control-plane work is categorized as sync
  // (it is the overhead control replication exists to distribute).
  sim::Event charge(Ctx& ctx, double cost_ns, const char* what = "issue") {
    support::TraceTag tag;
    if (tracer() != nullptr) {
      tag = {support::TraceCategory::kSync, what};
    }
    ctx.last = ctx.proc->spawn(ctx.last, ns(cost_ns), nullptr, std::move(tag));
    return ctx.last;
  }

  // --- physical instances and per-instance synchronization -------------

  struct InstanceRef {
    rt::InstanceId inst = rt::kNoId;  // kNoId in virtual-only mode
    uint32_t node = 0;
    rt::RegionId region = rt::kNoId;
    uint32_t key = 0;  // index into sync_
  };
  struct SyncEdge {
    sim::Event event;
    uint32_t node = 0;
    uint32_t shard = kMainEnv;  // issuing control context
    // Barrier-synchronized op (Fig. 4c): its cross-shard dependence
    // edges are relaxed — the barriers around it ARE the ordering.
    bool relaxed = false;
  };
  struct InstanceSync {
    std::vector<SyncEdge> readers;  // since the last write epoch
    std::vector<SyncEdge> writers;  // the current write epoch
  };

  // Instances are made at first touch, so sync keys (and the checker's
  // place keys) follow the unroll's first-touch order. The tables are
  // flat, indexed by dense ids: a partition's row of instances and its
  // row of nodes (the mapper's placement of each color, from the
  // subregion sizes) are filled at its first touch and never resized,
  // so an InstanceRef& stays valid for the engine's lifetime; growing
  // the root table (a deque) moves no entry either.
  // An entry whose `region` is kNoId has no instance yet.
  struct PartitionRow {
    std::vector<InstanceRef> insts;  // by color
    std::vector<uint32_t> nodes;     // by color
  };
  std::deque<PartitionRow> part_inst_;  // by PartitionId
  std::deque<InstanceRef> root_inst_;   // by root RegionId
  std::vector<std::unique_ptr<InstanceSync>> sync_;

  PartitionRow& part_row(rt::PartitionId p);
  InstanceRef& part_instance(rt::PartitionId p, uint64_t color);
  InstanceRef& root_instance(rt::RegionId root);
  // Create `ref`'s instance of `region` on `node` and its sync record.
  void make_instance(InstanceRef& ref, rt::RegionId region, uint32_t node);
  InstanceSync& sync_of(const InstanceRef& ref) { return *sync_[ref.key]; }

  // One region use of an op: the instance it touches and how.
  struct Use {
    InstanceRef* ref = nullptr;
    rt::Privilege privilege = rt::Privilege::kReadOnly;
    rt::ReduceOp redop = rt::ReduceOp::kSum;
    const std::vector<rt::FieldId>* fields = nullptr;

    // Reductions order like writes: they join the write epoch.
    bool writes() const {
      return rt::privilege_writes(privilege) ||
             privilege == rt::Privilege::kReduce;
    }
    check::AccessType access() const {
      if (privilege == rt::Privilege::kReduce) {
        return check::AccessType::kReduce;
      }
      return writes() ? check::AccessType::kWrite : check::AccessType::kRead;
    }
  };

  // Append the instance-sync preconditions of `uses` for an op executing
  // on `node`: a read waits on the current write epoch, a write also on
  // the readers since. `relaxed` drops cross-shard edges (skip_edge).
  // Notifies raised on behalf of a provenance-carrying consumer (a
  // compiler-inserted copy, `attr`) have their NIC time attributed to it.
  void sync_pre(std::span<const Use> uses, uint32_t node, uint32_t shard,
                bool relaxed, const ir::Stmt* attr,
                std::vector<sim::Event>& pre);
  // Register the op completing at `done` (on `node`) as a user of each
  // use — writes first, so a read-and-write use of one instance ends in a
  // write epoch that includes the op.
  void note_uses(std::span<const Use> uses, sim::Event done, uint32_t node,
                 uint32_t shard);
  static void note_read(InstanceSync& s, sim::Event done, uint32_t node,
                        uint32_t shard, bool relaxed = false) {
    s.readers.push_back({done, node, shard, relaxed});
  }
  static void note_write(InstanceSync& s, sim::Event done, uint32_t node,
                         uint32_t shard, bool relaxed = false);

  // Barrier-mode relaxation (paper §3.4, Fig. 4c): when either side of
  // a dependence is a barrier-synchronized copy, the point-to-point edge
  // between *different shards* is dropped — sync_insertion guarantees a
  // barrier separates the conflicting pair. Same-shard edges and edges
  // touching the main task always hold (sequential semantics within one
  // control thread). A p2p copy behaves this way only when the checker's
  // fault injection deletes its synchronization.
  static bool skip_edge(const SyncEdge& e, uint32_t shard, bool relaxed) {
    if (!e.relaxed && !relaxed) return false;
    if (shard == kMainEnv || e.shard == kMainEnv) return false;
    return e.shard != shard;
  }

  // --- cross-node notifies (SPMD timing of the simulated machine) ------
  // A shard control thread that issues an operation executing on another
  // node, or waits on one that completed there, only learns of it over
  // the network. These helpers charge that message; they are identity in
  // implicit mode and for same-node issues.

  // Merge the issuing control thread's preconditions (control chain,
  // captured scalar readys) into the executing node's precondition set.
  // A cross-node dispatch becomes a zero-byte notify: the executing
  // node learns of the issue one network delay later.
  void route_ctx_pre(Ctx& ctx, uint32_t exec_node,
                     const std::vector<sim::Event>& ctx_pre,
                     std::vector<sim::Event>& pre);
  // Make a completion triggering on `from` observable on `to`: a
  // cross-node completion returns as a zero-byte notify (the control
  // thread hears about remotely-executed work over the wire).
  sim::Event localize(sim::Event done, uint32_t from, uint32_t to);

  // --- intersection tables --------------------------------------------------

  struct PairInfo {
    uint64_t i = 0, j = 0;
    // The elements the pair moves: a set of the table's own, or the
    // region's when the copy goes through a root instance. The access
    // log and in-flight copy requests point at it, so a table is never
    // rebuilt once built.
    const support::IntervalSet* points = nullptr;
  };
  // A copy's (src color i, dst color j) pairs, sorted by i, over a source
  // partition of src_colors colors. The sort is what lets a shard find
  // the pairs it owns as one slice (owned_pairs); every builder checks it.
  struct PairTable {
    std::vector<PairInfo> pairs;
    uint64_t src_colors = 1;
    std::deque<support::IntervalSet> sets;  // computed intersections
  };
  std::map<ir::IntersectId, PairTable> tables_;
  // Region geometry is immutable once the forest is built, so each copy
  // statement's pair table is computed once and reused across loop
  // iterations / shards. Host-side only: the pair list (and its issue
  // charges) is identical with or without the memo.
  std::map<const ir::Stmt*, PairTable> copy_tables_;

  static void check_sorted(const PairTable& t);
  // The pairs whose source color lies in `owned`: one slice, since the
  // table is sorted by source color.
  static std::span<const PairInfo> owned_pairs(const PairTable& t,
                                               rt::BlockRange owned);
  const PairTable& copy_table(const ir::Stmt& s);
  void build_copy_table(const ir::Stmt& s, PairTable& t);

  // --- scalar reduction partials --------------------------------------------

  struct PendingReduction {
    std::shared_ptr<std::vector<double>> partials;  // per launch color
    rt::ReduceOp op = rt::ReduceOp::kSum;
    uint64_t colors = 0;
    // Per control context: by shard, or [0] on the main task.
    std::vector<std::vector<sim::Event>> events;
  };
  std::map<ir::ScalarId, PendingReduction> pending_red_;

  // --- timeline trace and metrics -------------------------------------------

  // Tracer owned by the engine under ExecConfig::trace, unless one was
  // already attached to the simulator.
  std::unique_ptr<support::Tracer> owned_tracer_;

  // Declare every hardware track up front so idle machine time on
  // never-used cores is visible in the breakdown.
  void declare_tracks();
  // Mirror every component's counters into the runtime's registry once
  // the timeline is final. Pure host-side observation; called once per
  // run, and a Runtime hosts one run.
  void export_metrics(support::MetricsRegistry& m);

  // --- race-checker instrumentation (ExecConfig::check) --------------------

  // All host-side bookkeeping: when check_ is false nothing below is
  // touched on the hot path, and when true the virtual timeline is
  // unchanged (the log only copies event uids the engine wires anyway).
  // Accesses point at the forest's region sets and the pair tables'
  // sets, which stay put for the engine's lifetime.
  check::AccessLog log_;
  // Partials slot ranges [lo, hi), each one log-owned set.
  std::map<std::pair<uint64_t, uint64_t>, const support::IntervalSet*>
      partials_sets_;
  const support::IntervalSet& partials_range(uint64_t lo, uint64_t hi);
  sim::EventGraph graph_;
  uint64_t stmt_seq_ = 0;  // statement instances, implicit program order
  uint64_t cur_seq_ = 0;
  const ir::Stmt* cur_stmt_ = nullptr;

  bool mutated(const ir::Stmt& s) const {
    return mutant_ != ir::kNoSyncId && s.sync_id == mutant_;
  }

  // Does this copy run under barrier synchronization (edges relaxed)?
  // P2p copies keep their edges unless fault injection deletes them.
  bool relaxed_copy(const ir::Stmt& s, const Ctx& ctx) const {
    if (mode_ != ExecMode::kSpmd || ctx.shard == kMainEnv) return false;
    if (s.copy_src == rt::kNoId || s.copy_dst == rt::kNoId) return false;
    if (s.sync == ir::SyncMode::kP2P) return mutated(s);
    return true;
  }

  // Physical-location keys: instance accesses use the InstanceSync index
  // (even), scalar-reduction partials buffers their address (odd) — the
  // two families can never collide.
  static uint64_t place_of(const InstanceRef& ref) {
    return uint64_t{ref.key} << 1;
  }
  static uint64_t place_of_partials(const std::vector<double>* p) {
    return reinterpret_cast<uintptr_t>(p) | 1ull;
  }

  // The start anchors of an op waiting on `pre`: one span every access
  // the op logs shares.
  check::AnchorSpan log_starts(const std::vector<sim::Event>& pre);

  // `fields` and `points` must outlive the engine (see log_).
  void log_access(check::AccessType type, rt::ReduceOp redop, uint64_t place,
                  rt::RegionId root, const std::vector<rt::FieldId>& fields,
                  const support::IntervalSet& points, check::AnchorSpan starts,
                  uint64_t done_uid, uint64_t sub, uint32_t shard,
                  const char* what);
  // Log one use over `points` of its instance.
  void log_use(const Use& u, const support::IntervalSet& points,
               check::AnchorSpan starts, uint64_t done_uid, uint64_t sub,
               uint32_t shard, const char* what);
  // Log every use over its whole region, started by `pre`; returns the
  // uses' start span.
  check::AnchorSpan log_uses(std::span<const Use> uses,
                             const std::vector<sim::Event>& pre,
                             sim::Event done, uint64_t sub, uint32_t shard,
                             const char* what);

  // --- misc -----------------------------------------------------------------

  ExecutionResult result_;
  bool ran_ = false;  // run() is one-shot
  std::vector<uint64_t> proc_rr_;  // per-node round-robin counter
  uint64_t op_id_ = 0;

  // Implicit mode: the master performs dynamic dependence analysis over
  // the logical region tree.
  bool analyzing() const {
    return mode_ == ExecMode::kImplicit && cost_.track_dependences;
  }
  // Append the completions of the current op's conflicting predecessors
  // on `req` to `pre`; returns the charge for it. The virtual charge is
  // the pairs an exhaustive scan tests (what the simulated master pays);
  // the tracker's overlap lists only change how fast the host
  // reproduces it.
  double depend(const rt::Requirement& req, sim::Event completion,
                std::vector<sim::Event>& pre);

  LiveOps live_ops_;
  void track(sim::Event done, LiveOps::Kind kind, const ir::Stmt& s,
             uint64_t color = 0) {
    live_ops_.track(done, kind, s, color);
  }

  // A compute span's trace tag; `label()` runs only when tracing.
  template <typename Label>
  support::TraceTag compute_tag(Label&& label) {
    if (tracer() == nullptr) return {};
    return {support::TraceCategory::kCompute, label()};
  }
  // Run `work` for `duration_ns` on the next compute core of `node`
  // (round-robin) once every event in `pre` has triggered.
  sim::Event spawn_on(uint32_t node, const std::vector<sim::Event>& pre,
                      double duration_ns, std::function<void()> work,
                      support::TraceTag tag);
  // A task body: spawn_on, with the op's `done` (made before binding,
  // so users can register against it) firing when the body ends.
  void spawn_task(sim::Event done, uint32_t node,
                  const std::vector<sim::Event>& pre, double duration_ns,
                  std::function<void()> work, support::TraceTag tag);
  // Nominal body duration: base plus per element of the domain use.
  double task_duration(const ir::TaskDecl& decl, std::span<const Use> uses);
  // Real-mode kernel body of a task over `uses`.
  std::function<void()> kernel_work(const ir::TaskDecl& decl, uint64_t color,
                                    std::span<const Use> uses,
                                    std::shared_ptr<Captures> captures,
                                    PendingReduction* red);

  // =====================================================================
  // Unrolling (lockstep across control contexts)
  // =====================================================================

  void unroll();
  void exec_body(const std::vector<ir::Stmt>& body, std::vector<Ctx>& ctxs,
                 uint32_t num_shards);
  void exec_stmt(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                 uint32_t num_shards);

  // engine_tasks.cc
  void exec_launch(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                   uint32_t num_shards);
  // The node of each point task of a launch. An identity launch over
  // all of its domain partition's colors (every launch in a CR
  // fragment) uses that partition's row; any other launch gets a row
  // of its own, placed by the domain argument's subregion size at each
  // color (through its projection), or uniformly without one.
  std::map<const ir::Stmt*, std::vector<uint32_t>> launch_nodes_;
  std::span<const uint32_t> launch_nodes(const ir::Stmt& s,
                                         const ir::TaskDecl& decl);
  void issue_point_task(const ir::Stmt& s, const ir::TaskDecl& decl,
                        uint32_t node, uint64_t color, Ctx& ctx,
                        PendingReduction* red);
  void exec_single(const ir::Stmt& s, Ctx& ctx);
  void exec_fill(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                 uint32_t num_shards);

  // engine_copies.cc
  void exec_intersect(const ir::Stmt& s, Ctx& ctx);
  void exec_copy(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                 uint32_t num_shards);
  void issue_one_copy(const ir::Stmt& s, const PairInfo& pi, Ctx& ctx);
  void exec_shards(const ir::Stmt& s, std::vector<Ctx>& main);

  // engine_sync.cc
  void exec_barrier(const ir::Stmt& s, std::vector<Ctx>& ctxs);
  void exec_collective(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                       uint32_t num_shards);
  void exec_scalar_op(const ir::Stmt& s, Ctx& ctx);

  // ---------------------------------------------------------------------

  rt::Runtime& rt_;
  const rt::Mapper mapper_;  // ExecConfig::mapper, the only placement route
  const ir::Program& p_;
  CostModel cost_;
  ExecMode mode_;
  const bool check_;            // record accesses + HB graph, run checker
  const ir::SyncId mutant_;     // sync op deleted by fault injection
  // Cached registry counters bumped during unroll (avoids the by-name
  // lookup on every task, copy pair and barrier/collective generation).
  support::Counter& m_point_tasks_;
  support::Counter& m_intersection_pairs_;
  // Pairs exec_copy walked, over all control contexts. Every one is
  // issued or skipped as empty: a shard visits only its owned slice.
  support::Counter& m_copy_pairs_visited_;
  support::Counter& m_copies_skipped_;  // empty pairs, never issued
  support::Counter& m_barrier_gens_;
  support::Counter& m_barrier_arrivals_;
  support::Counter& m_collective_rounds_;
};

}  // namespace cr::exec
