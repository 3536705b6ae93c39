#include "exec/engine.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <span>

#include "exec/live_ops.h"
#include "passes/shard_creation.h"
#include "rt/intersect.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace cr::exec {

namespace {
// Env id of the main/implicit control task (shards use their index).
constexpr uint32_t kMainEnv = UINT32_MAX;
}  // namespace

// =====================================================================
// Impl
// =====================================================================

struct Engine::Impl {
  Impl(rt::Runtime& rt, const ir::Program& program, const ExecConfig& config)
      : rt_(rt),
        p_(program),
        cost_(config.cost),
        mode_(config.mode),
        check_(config.check),
        mutant_(config.check_mutate),
        m_barrier_gens_(rt.metrics().counter("rt.barrier.generations")),
        m_barrier_arrivals_(rt.metrics().counter("rt.barrier.arrivals")),
        m_collective_rounds_(rt.metrics().counter("rt.collective.rounds")) {
    // Install the configured placement policy before anything queries
    // placement (ExecConfig::mapper is the one way to configure it).
    rt_.select_mapper(config.mapper);
    if (config.trace && rt_.sim().tracer() == nullptr) {
      owned_tracer_ = std::make_unique<support::Tracer>();
      rt_.sim().set_tracer(owned_tracer_.get());
    }
  }

  ~Impl() {
    // Detach the tracer ExecConfig::trace attached before it is
    // destroyed (the runtime outlives the engine).
    if (owned_tracer_ != nullptr &&
        rt_.sim().tracer() == owned_tracer_.get()) {
      rt_.sim().set_tracer(nullptr);
    }
    if (rt_.sim().event_graph() == &graph_) {
      rt_.sim().set_event_graph(nullptr);
    }
  }

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

  // --- scalar environments (versioned, deferred futures) ---------------

  struct ScalarVersion {
    std::shared_ptr<double> value = std::make_shared<double>(0.0);
    sim::Event ready;  // value valid once triggered
  };
  struct ScalarEnv {
    std::vector<std::vector<ScalarVersion>> versions;  // per scalar id
  };
  std::map<uint32_t, ScalarEnv> envs_;

  ScalarEnv& env(uint32_t id) {
    auto [it, inserted] = envs_.try_emplace(id);
    if (inserted) {
      it->second.versions.resize(p_.scalars.size());
      if (id == kMainEnv) {
        for (size_t s = 0; s < p_.scalars.size(); ++s) {
          ScalarVersion v;
          *v.value = p_.scalars[s].init;
          it->second.versions[s].push_back(std::move(v));
        }
      } else {
        // Shard environments replicate the main task's scalar state as
        // of the shard launch (paper §4.4: scalars are replicated).
        ScalarEnv& m = env(kMainEnv);
        for (size_t s = 0; s < p_.scalars.size(); ++s) {
          it->second.versions[s].push_back(m.versions[s].back());
        }
      }
    }
    return it->second;
  }
  ScalarVersion& latest(uint32_t env_id, ir::ScalarId s) {
    return env(env_id).versions[s].back();
  }

  // --- control contexts -------------------------------------------------

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
    std::deque<sim::Event> window;  // in-flight ops (bounded run-ahead)
  };

  // Bounded run-ahead (Legion's finite pipeline): before issuing another
  // operation, a control thread whose window is full stalls until its
  // oldest in-flight operation completes.
  void gate_window(Ctx& ctx, sim::Event completion) {
    if (cost_.run_ahead_window == 0) {
      return;
    }
    if (ctx.window.size() >= cost_.run_ahead_window) {
      ctx.last = sim().merge({ctx.last, ctx.window.front()});
      ctx.window.pop_front();
    }
    ctx.window.push_back(completion);
  }

  // Charge control-plane time to the context's processor. `what` labels
  // the interval in traces; control-plane work is categorized as sync
  // (it is the overhead control replication exists to distribute).
  sim::Event charge(Ctx& ctx, double cost_ns, const char* what = "issue",
                    std::function<void()> work = nullptr) {
    support::TraceTag tag;
    if (tracer() != nullptr) {
      tag = {support::TraceCategory::kSync, what};
    }
    ctx.last = ctx.proc->spawn(ctx.last, ns(cost_ns), std::move(work),
                               std::move(tag));
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

  std::map<std::pair<rt::PartitionId, uint64_t>, InstanceRef> part_inst_;
  std::map<rt::RegionId, InstanceRef> root_inst_;
  std::vector<std::unique_ptr<InstanceSync>> sync_;

  // Per-color work weights (subregion sizes) of a partition, cached so
  // weight-aware mappers see a stable vector per partition. Placement
  // queries happen only during the single-threaded unroll.
  std::map<rt::PartitionId, std::vector<uint64_t>> part_weights_;
  const std::vector<uint64_t>* weights_of(rt::PartitionId p) {
    auto [it, inserted] = part_weights_.try_emplace(p);
    if (inserted) {
      const rt::PartitionNode& pn = forest().partition(p);
      it->second.reserve(pn.subregions.size());
      for (rt::RegionId r : pn.subregions) {
        it->second.push_back(forest().region(r).ispace.size());
      }
    }
    return &it->second;
  }

  InstanceRef& part_instance(rt::PartitionId p, uint64_t color) {
    auto [it, inserted] = part_inst_.try_emplace({p, color});
    if (inserted) {
      const rt::PartitionNode& pn = forest().partition(p);
      CR_CHECK(color < pn.subregions.size());
      it->second.region = pn.subregions[color];
      it->second.node = rt_.mapper().node_of_color(
          color, rt::LaunchShape{pn.subregions.size(), weights_of(p)});
      if (rt_.instances() != nullptr) {
        it->second.inst =
            rt_.instances()->create(it->second.region, it->second.node);
      }
      it->second.key = static_cast<uint32_t>(sync_.size());
      sync_.push_back(std::make_unique<InstanceSync>());
    }
    return it->second;
  }

  InstanceRef& root_instance(rt::RegionId root) {
    auto [it, inserted] = root_inst_.try_emplace(root);
    if (inserted) {
      it->second.region = root;
      it->second.node = 0;  // master data lives with the main task
      if (rt_.instances() != nullptr) {
        it->second.inst = rt_.instances()->create(root, 0);
      }
      it->second.key = static_cast<uint32_t>(sync_.size());
      sync_.push_back(std::make_unique<InstanceSync>());
    }
    return it->second;
  }

  InstanceSync& sync_of(const InstanceRef& ref) { return *sync_[ref.key]; }

  // Turn a sync edge into a precondition for an op on `node`, charging a
  // zero-byte notification message when it crosses nodes in SPMD mode
  // (the point-to-point synchronization of paper §3.4).
  sim::Event edge_event(const SyncEdge& e, uint32_t node) {
    if (mode_ == ExecMode::kSpmd && e.node != node) {
      sim::Event sent = rt_.network().send(e.node, node, 0, e.event);
      // Notification raised on behalf of a provenance-carrying consumer
      // (a compiler-inserted copy): its NIC time belongs to that source.
      if (attr_stmt_ != nullptr) attribute(sent, *attr_stmt_);
      return sent;
    }
    return e.event;
  }
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
  // the network. These two helpers charge that message; both are
  // identity in implicit mode and for same-node issues.

  // Merge the issuing control thread's preconditions (control chain,
  // captured scalar readys) into the executing node's precondition set.
  // A cross-node dispatch becomes a zero-byte notify: the executing
  // node learns of the issue one network delay later.
  void route_ctx_pre(Ctx& ctx, uint32_t exec_node,
                     const std::vector<sim::Event>& ctx_pre,
                     std::vector<sim::Event>& pre) {
    if (mode_ == ExecMode::kSpmd && exec_node != ctx.node) {
      pre.push_back(rt_.network().send(ctx.node, exec_node, 0,
                                       sim().merge(ctx_pre)));
      return;
    }
    pre.insert(pre.end(), ctx_pre.begin(), ctx_pre.end());
  }

  // Make a completion triggering on `from` observable on `to`: a
  // cross-node completion returns as a zero-byte notify (the control
  // thread hears about remotely-executed work over the wire).
  sim::Event localize(sim::Event done, uint32_t from, uint32_t to) {
    if (mode_ != ExecMode::kSpmd || from == to) return done;
    return rt_.network().send(from, to, 0, done);
  }

  void read_pre(InstanceSync& s, uint32_t node, uint32_t shard, bool relaxed,
                std::vector<sim::Event>& pre) {
    for (const SyncEdge& w : s.writers) {
      if (skip_edge(w, shard, relaxed)) continue;
      pre.push_back(edge_event(w, node));
    }
  }
  void write_pre(InstanceSync& s, uint32_t node, uint32_t shard, bool relaxed,
                 std::vector<sim::Event>& pre) {
    for (const SyncEdge& w : s.writers) {
      if (skip_edge(w, shard, relaxed)) continue;
      pre.push_back(edge_event(w, node));
    }
    for (const SyncEdge& r : s.readers) {
      if (skip_edge(r, shard, relaxed)) continue;
      pre.push_back(edge_event(r, node));
    }
  }
  static void note_read(InstanceSync& s, sim::Event done, uint32_t node,
                        uint32_t shard, bool relaxed = false) {
    s.readers.push_back({done, node, shard, relaxed});
  }
  static void note_write(InstanceSync& s, sim::Event done, uint32_t node,
                         uint32_t shard, bool relaxed = false) {
    if (!relaxed) {
      // An ordinary write waited on every prior edge, so it dominates
      // them all and becomes the sole write epoch.
      s.writers.assign(1, {done, node, shard, relaxed});
      s.readers.clear();
      return;
    }
    // A relaxed write may retire only its own shard's edges. Cross-shard
    // edges it skipped obviously stay. Main-task edges it DID wait on
    // must stay too: an unordered sibling writer in the same barrier
    // interval (another shard's copy pair of the same statement) still
    // needs to wait on them directly — retiring an edge a sibling never
    // waited on silently breaks transitive ordering (e.g. a main-task
    // init copy vanishing behind an unordered shard copy). Bounded: one
    // relaxed writer per shard plus the surviving main edges.
    auto retired = [&](const SyncEdge& e) { return e.shard == shard; };
    s.writers.erase(
        std::remove_if(s.writers.begin(), s.writers.end(), retired),
        s.writers.end());
    s.readers.erase(
        std::remove_if(s.readers.begin(), s.readers.end(), retired),
        s.readers.end());
    s.writers.push_back({done, node, shard, relaxed});
  }

  // --- intersection tables ----------------------------------------------

  struct PairInfo {
    uint64_t i = 0, j = 0;
    support::IntervalSet points;
  };
  // A copy's (src color i, dst color j) pairs, sorted by i, over a source
  // partition of src_colors colors. The sort is what lets a shard find
  // the pairs it owns as one slice (owned_pairs); every builder checks it.
  struct PairTable {
    std::vector<PairInfo> pairs;
    uint64_t src_colors = 1;
  };
  std::map<ir::IntersectId, PairTable> tables_;
  // Region geometry is immutable once the forest is built, so each copy
  // statement's pair table is computed once and reused across loop
  // iterations / shards. Host-side only: the pair list (and its issue
  // charges) is identical with or without the memo.
  std::map<const ir::Stmt*, PairTable> copy_tables_;
  // Pairs exec_copy walked, over all control contexts. Every one is
  // issued or skipped as empty: a shard visits only its owned slice.
  uint64_t copy_pairs_visited_ = 0;

  static void check_sorted(const PairTable& t) {
    CR_CHECK_MSG(std::is_sorted(t.pairs.begin(), t.pairs.end(),
                                [](const PairInfo& a, const PairInfo& b) {
                                  return a.i < b.i;
                                }),
                 "copy pair table not sorted by source color");
    CR_CHECK(t.pairs.empty() || t.pairs.back().i < t.src_colors);
  }

  // The pairs whose source color `shard` owns: the blocked launch
  // ownership of paper §3.5 (the same math as passes::shard_block).
  // Block ownership is contiguous and the table is sorted by source
  // color, so they are one slice. Deliberately NOT a mapper decision —
  // shards own contiguous color blocks regardless of where the mapper
  // executes the tasks, so a non-default mapper changes placement, never
  // issue ownership.
  static std::span<const PairInfo> owned_pairs(const PairTable& t,
                                               uint32_t shard,
                                               uint32_t num_shards) {
    const rt::BlockRange r = rt::block_range(t.src_colors, num_shards, shard);
    const auto lo = std::partition_point(
        t.pairs.begin(), t.pairs.end(),
        [&](const PairInfo& pi) { return pi.i < r.begin; });
    const auto hi = std::partition_point(
        lo, t.pairs.end(), [&](const PairInfo& pi) { return pi.i < r.end; });
    return {lo, hi};
  }

  // --- scalar reduction partials ------------------------------------------

  using Captures =
      std::vector<std::pair<ir::ScalarId, std::shared_ptr<double>>>;

  struct PendingReduction {
    std::shared_ptr<std::vector<double>> partials;  // per launch color
    rt::ReduceOp op = rt::ReduceOp::kSum;
    uint64_t colors = 0;
    std::map<uint32_t, std::vector<sim::Event>> events;  // per shard
  };
  std::map<ir::ScalarId, PendingReduction> pending_red_;

  std::map<const ir::Stmt*, std::unique_ptr<rt::DynamicCollective>>
      collectives_;
  std::map<const ir::Stmt*, std::unique_ptr<rt::PhaseBarrier>> barriers_;
  std::map<const ir::Stmt*, uint64_t> stmt_gen_;

  // --- timeline trace ------------------------------------------------------

  // Tracer owned by the engine under ExecConfig::trace, unless one was
  // already attached to the simulator.
  std::unique_ptr<support::Tracer> owned_tracer_;

  // Declare every hardware track up front so idle machine time on
  // never-used cores is visible in the breakdown.
  void declare_tracks() {
    support::Tracer* t = tracer();
    if (t == nullptr) return;
    const sim::Machine& m = rt_.machine();
    for (uint32_t n = 0; n < m.nodes(); ++n) {
      t->set_process_name(n, "node " + std::to_string(n));
      const uint32_t ctl = rt_.mapper().control_proc(n).core;
      for (uint32_t c = 0; c < m.cores_per_node(); ++c) {
        t->declare_track(n, c,
                         c == ctl ? "control" : "core " + std::to_string(c));
      }
      t->declare_track(n, support::kNicTid, "nic");
      t->declare_track(n, support::kMemTid, "mem");
    }
    t->set_process_name(support::kRuntimePid, "runtime");
    t->declare_track(support::kRuntimePid, 0, "barriers", false);
    t->declare_track(support::kRuntimePid, 1, "collectives", false);
  }

  // --- metrics mirror (end of run) -----------------------------------------

  // Mirror every component's counters into the runtime's registry once
  // the timeline is final. Pure host-side observation: counters use
  // set() so re-running on one Runtime stays idempotent, and the
  // per-processor busy histogram is rebuilt from scratch each time.
  void export_metrics(support::MetricsRegistry& m) {
    m.counter("exec.makespan_ns").set(result_.makespan_ns);
    m.counter("exec.point_tasks").set(result_.point_tasks);
    m.counter("exec.copies_issued").set(result_.copies_issued);
    m.counter("exec.copies_skipped").set(result_.copies_skipped);
    m.counter("exec.copy_pairs_visited").set(copy_pairs_visited_);
    m.counter("exec.bytes_moved").set(result_.bytes_moved);
    m.counter("exec.messages").set(result_.messages);
    m.counter("exec.intersection_pairs").set(result_.intersection_pairs);
    m.counter("exec.control_busy_ns").set(result_.control_busy_ns);

    m.counter("sim.events_processed").set(sim().events_processed());
    m.gauge("sim.queue.max_depth").set(sim().max_queue_depth());
    m.counter("sim.net.messages").set(rt_.network().messages_sent());
    m.counter("sim.net.bytes").set(rt_.network().bytes_sent());
    support::Histogram& busy = m.histogram("sim.proc.busy_ns");
    busy.reset();
    sim::Machine& mach = rt_.machine();
    for (uint32_t n = 0; n < mach.nodes(); ++n) {
      for (uint32_t c = 0; c < mach.cores_per_node(); ++c) {
        busy.record(mach.proc(n, c).busy_time());
      }
    }

    const rt::DependenceTracker& deps = rt_.deps();
    m.counter("rt.dep.pairs_scanned").set(deps.pairs_scanned());
    m.counter("rt.dep.pairs_tested").set(deps.pairs_tested());
    m.counter("rt.dep.dependences").set(deps.dependences_found());
    m.counter("rt.dep.index_queries").set(deps.index_queries());
    m.counter("rt.dep.index_rebuilds").set(deps.index_rebuilds());

    forest().export_metrics(m);
  }

  // --- race-checker instrumentation (ExecConfig::check) --------------------

  // All host-side bookkeeping: when check_ is false nothing below is
  // touched on the hot path, and when true the virtual timeline is
  // unchanged (the log only copies event uids the engine wires anyway).
  check::AccessLog log_;
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

  rt::RegionId region_root(rt::RegionId r) { return forest().region(r).root; }

  static std::vector<uint64_t> uids_of(const std::vector<sim::Event>& pre) {
    std::vector<uint64_t> out;
    out.reserve(pre.size());
    for (const sim::Event& e : pre) {
      if (e.uid() != 0) out.push_back(e.uid());
    }
    return out;
  }

  void log_access(check::AccessType type, rt::ReduceOp redop, uint64_t place,
                  rt::RegionId root, const std::vector<rt::FieldId>& fields,
                  support::IntervalSet points, std::vector<uint64_t> starts,
                  uint64_t done_uid, uint64_t sub, uint32_t shard,
                  const char* what) {
    check::Access a;
    a.place = place;
    a.root = root;
    a.fields = fields;
    a.points = std::move(points);
    a.type = type;
    a.redop = redop;
    a.start_uids = std::move(starts);
    a.done_uid = done_uid;
    a.seq = cur_seq_;
    a.sub = sub;
    a.shard = shard;
    a.stmt = cur_stmt_;
    a.what = what;
    log_.accesses.push_back(std::move(a));
  }

  // --- misc ---------------------------------------------------------------

  ExecutionResult result_;
  std::map<uint32_t, uint64_t> proc_rr_;  // per-node round-robin counter
  uint64_t op_id_ = 0;

  // Dynamic dependence analysis for the current operation: append the
  // completion events of conflicting predecessors to `pre`.
  void record_dep(const rt::Requirement& req, sim::Event completion,
                  std::vector<sim::Event>& pre) {
    auto deps = rt_.deps().record(op_id_, req, completion);
    pre.insert(pre.end(), deps.begin(), deps.end());
  }

  LiveOps live_ops_;
  void track(sim::Event done, LiveOps::Kind kind, const ir::Stmt& s,
             uint64_t color = 0) {
    live_ops_.track(sim(), done, kind, s, color);
  }

  // =====================================================================
  // Unrolling (lockstep across control contexts)
  // =====================================================================

  void unroll() {
    declare_tracks();
    std::vector<Ctx> main(1);
    main[0].node = 0;
    main[0].shard = kMainEnv;
    main[0].proc = &rt_.machine().proc(rt_.mapper().control_proc(0));
    exec_body(p_.body, main, 1);
  }

  void exec_body(const std::vector<ir::Stmt>& body, std::vector<Ctx>& ctxs,
                 uint32_t num_shards) {
    for (const ir::Stmt& s : body) exec_stmt(s, ctxs, num_shards);
  }

  void exec_stmt(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                 uint32_t num_shards) {
    if (check_) {
      // The unroll walks statements in lockstep across control contexts
      // (the per-context loops live inside the exec_* functions), so one
      // global counter bumped per statement visit *is* the implicit
      // program's sequential order, including loop iterations.
      cur_stmt_ = &s;
      cur_seq_ = ++stmt_seq_;
    }
    switch (s.kind) {
      case ir::StmtKind::kForTime:
        for (uint64_t t = 0; t < s.trip_count; ++t) {
          for (Ctx& c : ctxs) charge(c, cost_.loop_overhead_ns, "loop");
          exec_body(s.body, ctxs, num_shards);
        }
        return;
      case ir::StmtKind::kIndexLaunch:
        exec_launch(s, ctxs, num_shards);
        return;
      case ir::StmtKind::kSingleTask:
        CR_CHECK(ctxs.size() == 1);
        exec_single(s, ctxs[0]);
        return;
      case ir::StmtKind::kScalarOp:
        for (Ctx& c : ctxs) exec_scalar_op(s, c);
        return;
      case ir::StmtKind::kCopy:
        exec_copy(s, ctxs, num_shards);
        return;
      case ir::StmtKind::kFill:
        exec_fill(s, ctxs, num_shards);
        return;
      case ir::StmtKind::kBarrier:
        exec_barrier(s, ctxs, num_shards);
        return;
      case ir::StmtKind::kIntersect:
        CR_CHECK(ctxs.size() == 1);
        exec_intersect(s, ctxs[0]);
        return;
      case ir::StmtKind::kCollective:
        exec_collective(s, ctxs, num_shards);
        return;
      case ir::StmtKind::kShardBody:
        exec_shards(s, ctxs);
        return;
    }
    CR_UNREACHABLE("bad statement kind");
  }

  // --- shards ---------------------------------------------------------------

  void exec_shards(const ir::Stmt& s, std::vector<Ctx>& main) {
    CR_CHECK_MSG(mode_ == ExecMode::kSpmd,
                 "shard body reached in implicit mode");
    CR_CHECK(main.size() == 1);
    const uint32_t num_shards = s.num_shards;
    std::vector<Ctx> shards(num_shards);
    for (uint32_t x = 0; x < num_shards; ++x) {
      shards[x].shard = x;
      shards[x].node = rt_.mapper().shard_node(x, num_shards);
      const sim::ProcId ctl = rt_.mapper().control_proc(shards[x].node);
      shards[x].proc = &rt_.machine().proc(ctl);
      if (support::Tracer* t = tracer()) {
        t->declare_track(ctl.node, ctl.core,
                         "shard " + std::to_string(x) + " (control)");
      }
      // Shards start once the main task has issued them. The launch of a
      // remote shard is a real network dispatch: localize the handoff so
      // the shard's control chain starts on its own node.
      shards[x].last = localize(main[0].last, main[0].node, shards[x].node);
      // Per-shard cost of the complete intersections for owned pairs
      // (paper §3.3: computed inside the individual shards).
      double complete_ns = 0;
      for (const auto& [id, table] : tables_) {
        for (const PairInfo& pi : owned_pairs(table, x, num_shards)) {
          complete_ns += cost_.isect_complete_per_interval_ns *
                         static_cast<double>(pi.points.interval_count());
        }
      }
      if (complete_ns > 0) charge(shards[x], complete_ns, "isect:complete");
    }
    exec_body(s.body, shards, num_shards);
    // The main task resumes after the shard launch itself (deferred); the
    // finalization copies it issues synchronize through instance events.
    charge(main[0], cost_.single_task_issue_ns, "resume");
  }

  // --- launches --------------------------------------------------------------

  void exec_launch(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                   uint32_t num_shards) {
    const ir::TaskDecl& decl = p_.task(s.task);

    PendingReduction* red = nullptr;
    if (s.scalar_red) {
      PendingReduction& pr = pending_red_[s.scalar_red->target];
      pr.partials = std::make_shared<std::vector<double>>(
          s.launch_colors, rt::reduce_identity(s.scalar_red->op));
      pr.op = s.scalar_red->op;
      pr.colors = s.launch_colors;
      pr.events.clear();
      red = &pr;
    }

    for (Ctx& ctx : ctxs) {
      uint64_t begin = 0, end = s.launch_colors;
      if (ctx.shard != kMainEnv) {
        auto r = passes::shard_block(s.launch_colors, num_shards, ctx.shard);
        begin = r.begin;
        end = r.end;
      }
      for (uint64_t i = begin; i < end; ++i) {
        issue_point_task(s, decl, i, ctx, red);
      }
    }
  }

  // The launch's per-color work weights for weight-aware mappers: the
  // domain argument's subregion size at each color (through its
  // projection). Cached per statement; the default mapper ignores
  // weights, so this changes nothing under the legacy policy.
  std::map<const ir::Stmt*, std::vector<uint64_t>> launch_weights_;
  rt::LaunchShape launch_shape(const ir::Stmt& s, const ir::TaskDecl& decl) {
    rt::LaunchShape shape{s.launch_colors, nullptr};
    if (s.args.empty() || decl.domain_param >= s.args.size()) return shape;
    auto [it, inserted] = launch_weights_.try_emplace(&s);
    if (inserted) {
      const ir::RegionArg& a = s.args[decl.domain_param];
      const rt::PartitionNode& pn = forest().partition(a.partition);
      it->second.reserve(s.launch_colors);
      for (uint64_t c = 0; c < s.launch_colors; ++c) {
        const uint64_t sub = a.proj(c);
        CR_CHECK(sub < pn.subregions.size());
        it->second.push_back(forest().region(pn.subregions[sub]).ispace.size());
      }
    }
    shape.weights = &it->second;
    return shape;
  }

  void issue_point_task(const ir::Stmt& s, const ir::TaskDecl& decl,
                        uint64_t color, Ctx& ctx, PendingReduction* red) {
    ++result_.point_tasks;
    ++op_id_;

    double issue_ns = mode_ == ExecMode::kImplicit ? cost_.implicit_launch_ns
                                                   : cost_.shard_launch_ns;

    std::vector<sim::Event> pre;
    const sim::Event done = sim().make_event();
    const uint32_t exec_node =
        rt_.mapper().node_of_color(color, launch_shape(s, decl));

    // Phase 1: bind instances and collect every precondition *before*
    // registering this task anywhere — a task passing the same region
    // through several arguments must not depend on itself.
    std::vector<InstanceRef*> insts(s.args.size());
    for (size_t k = 0; k < s.args.size(); ++k) {
      const ir::RegionArg& a = s.args[k];
      insts[k] = &part_instance(a.partition, a.proj(color));
      InstanceSync& sy = sync_of(*insts[k]);
      if (rt::privilege_writes(a.privilege) ||
          a.privilege == rt::Privilege::kReduce) {
        write_pre(sy, exec_node, ctx.shard, false, pre);
      } else {
        read_pre(sy, exec_node, ctx.shard, false, pre);
      }
      // Implicit mode: the master performs dynamic dependence analysis
      // over the logical region tree. The virtual charge is the pairs an
      // exhaustive scan tests (what the simulated master pays); the
      // indexed tracker only changes how fast the host reproduces it.
      if (mode_ == ExecMode::kImplicit && cost_.track_dependences) {
        const uint64_t before = rt_.deps().pairs_scanned();
        rt::Requirement req{insts[k]->region, a.privilege, a.redop, a.fields};
        record_dep(req, done, pre);
        issue_ns += cost_.dep_pair_ns *
                    static_cast<double>(rt_.deps().pairs_scanned() - before);
      }
    }
    // Phase 2: register as a user — writes first so a read-and-write use
    // of one instance ends in a write epoch that includes this task.
    for (size_t k = 0; k < s.args.size(); ++k) {
      const ir::RegionArg& a = s.args[k];
      if (rt::privilege_writes(a.privilege) ||
          a.privilege == rt::Privilege::kReduce) {
        note_write(sync_of(*insts[k]), done, exec_node, ctx.shard);
      }
    }
    for (size_t k = 0; k < s.args.size(); ++k) {
      const ir::RegionArg& a = s.args[k];
      if (!rt::privilege_writes(a.privilege) &&
          a.privilege != rt::Privilege::kReduce) {
        note_read(sync_of(*insts[k]), done, exec_node, ctx.shard);
      }
    }

    // Scalar argument capture: bind the scalar versions current at issue.
    // The readys and the issue charge trigger on the issuing control
    // thread's node; route them to the executing node as one dispatch.
    std::vector<sim::Event> ctx_pre;
    auto captures = std::make_shared<Captures>();
    for (ir::ScalarId a : s.scalar_args) {
      ScalarVersion& v = latest(ctx.shard, a);
      ctx_pre.push_back(v.ready);
      captures->push_back({a, v.value});
    }

    ctx_pre.push_back(charge(ctx, issue_ns, "issue:task"));
    route_ctx_pre(ctx, exec_node, ctx_pre, pre);

    if (check_) {
      const std::vector<uint64_t> starts = uids_of(pre);
      for (size_t k = 0; k < s.args.size(); ++k) {
        const ir::RegionArg& a = s.args[k];
        const check::AccessType ty =
            a.privilege == rt::Privilege::kReduce ? check::AccessType::kReduce
            : rt::privilege_writes(a.privilege)   ? check::AccessType::kWrite
                                                  : check::AccessType::kRead;
        log_access(ty, a.redop, place_of(*insts[k]),
                   region_root(insts[k]->region), a.fields,
                   forest().region(insts[k]->region).ispace.points(), starts,
                   done.uid(), color, ctx.shard, "task");
      }
      if (red != nullptr) {
        // The point task also writes its slot of the scalar-reduction
        // partials buffer, read later by the collective's fold.
        support::IntervalSet slot;
        slot.add_point(color);
        log_access(check::AccessType::kWrite, rt::ReduceOp::kSum,
                   place_of_partials(red->partials.get()), rt::kNoId, {0},
                   std::move(slot), starts, done.uid(), color,
                   ctx.shard, "partials");
      }
    }

    double duration =
        decl.cost_base_ns +
        decl.cost_per_elem_ns *
            static_cast<double>(
                forest().region(insts[decl.domain_param]->region)
                    .ispace.size());
    if (cost_.task_slow_prob > 0) {
      uint64_t h = op_id_ * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
      h ^= h >> 31;
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      if (u < cost_.task_slow_prob) duration *= 1.0 + cost_.task_slow_frac;
    }
    if (cost_.task_jitter_pct > 0) {
      // splitmix-style hash of the op id: deterministic noise.
      uint64_t h = op_id_ + 0x9e3779b97f4a7c15ull;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
      duration *= 1.0 + cost_.task_jitter_pct *
                            static_cast<double>((h ^ (h >> 31)) >> 11) *
                            0x1.0p-53;
    }

    std::function<void()> work;
    if (rt_.instances() != nullptr && decl.kernel) {
      work = make_kernel_work(decl, color, insts, captures, red);
    }
    sim::ProcId proc =
        rt_.mapper().compute_proc(exec_node, proc_rr_[exec_node]++);
    support::TraceTag tag;
    if (tracer() != nullptr) {
      tag = {support::TraceCategory::kCompute,
             decl.name + "[" + std::to_string(color) + "]"};
    }
    sim::Event task_done = rt_.machine().proc(proc).spawn(
        sim().merge(pre), ns(duration), std::move(work),
        std::move(tag));
    sim().trigger_when(done, task_done);
    if (support::Tracer* t = tracer()) {
      // The user-visible `done` fires with the task span as producer.
      t->alias(done.uid(), task_done.uid());
    }

    // The control thread observes the completion on its own node; the
    // localized event is what later same-context merges (barrier
    // arrivals, run-ahead gating, reduction folds) consume.
    sim::Event home = localize(done, exec_node, ctx.node);
    ctx.outstanding.push_back(home);
    track(done, LiveOps::Kind::kTask, s, color);
    gate_window(ctx, home);
    if (red != nullptr) {
      red->events[ctx.shard == kMainEnv ? 0 : ctx.shard].push_back(home);
    }
  }

  std::function<void()> make_kernel_work(
      const ir::TaskDecl& decl, uint64_t color,
      const std::vector<InstanceRef*>& insts,
      std::shared_ptr<Captures> captures, PendingReduction* red);

  // --- single tasks ------------------------------------------------------

  void exec_single(const ir::Stmt& s, Ctx& ctx) {
    const ir::TaskDecl& decl = p_.task(s.task);
    std::vector<sim::Event> pre;
    const sim::Event done = sim().make_event();
    std::vector<InstanceRef*> insts(s.regions.size());
    for (size_t k = 0; k < s.regions.size(); ++k) {
      CR_CHECK_MSG(forest().region(s.regions[k]).parent == rt::kNoId,
                   "single tasks run on root regions");
      insts[k] = &root_instance(s.regions[k]);
      InstanceSync& sy = sync_of(*insts[k]);
      const ir::TaskParam& param = decl.params[k];
      if (rt::privilege_writes(param.privilege) ||
          param.privilege == rt::Privilege::kReduce) {
        write_pre(sy, 0, ctx.shard, false, pre);
      } else {
        read_pre(sy, 0, ctx.shard, false, pre);
      }
    }
    for (size_t k = 0; k < s.regions.size(); ++k) {
      const ir::TaskParam& param = decl.params[k];
      if (rt::privilege_writes(param.privilege) ||
          param.privilege == rt::Privilege::kReduce) {
        note_write(sync_of(*insts[k]), done, 0, ctx.shard);
      }
    }
    for (size_t k = 0; k < s.regions.size(); ++k) {
      const ir::TaskParam& param = decl.params[k];
      if (!rt::privilege_writes(param.privilege) &&
          param.privilege != rt::Privilege::kReduce) {
        note_read(sync_of(*insts[k]), done, 0, ctx.shard);
      }
    }
    auto captures = std::make_shared<Captures>();
    for (ir::ScalarId a : s.scalar_args) {
      ScalarVersion& v = latest(kMainEnv, a);
      pre.push_back(v.ready);
      captures->push_back({a, v.value});
    }
    pre.push_back(charge(ctx, cost_.single_task_issue_ns, "issue:single"));

    if (check_) {
      const std::vector<uint64_t> starts = uids_of(pre);
      for (size_t k = 0; k < s.regions.size(); ++k) {
        const ir::TaskParam& param = decl.params[k];
        const check::AccessType ty =
            param.privilege == rt::Privilege::kReduce
                ? check::AccessType::kReduce
            : rt::privilege_writes(param.privilege) ? check::AccessType::kWrite
                                                    : check::AccessType::kRead;
        log_access(ty, param.redop, place_of(*insts[k]),
                   region_root(insts[k]->region), param.fields,
                   forest().region(insts[k]->region).ispace.points(), starts,
                   done.uid(), 0, ctx.shard, "single-task");
      }
    }

    const double duration =
        decl.cost_base_ns +
        decl.cost_per_elem_ns *
            static_cast<double>(
                forest().region(insts[decl.domain_param]->region)
                    .ispace.size());
    std::function<void()> work;
    if (rt_.instances() != nullptr && decl.kernel) {
      work = make_kernel_work(decl, 0, insts, captures, nullptr);
    }
    sim::ProcId proc = rt_.mapper().compute_proc(0, proc_rr_[0]++);
    support::TraceTag tag;
    if (tracer() != nullptr) {
      tag = {support::TraceCategory::kCompute, decl.name};
    }
    sim::Event task_done = rt_.machine().proc(proc).spawn(
        sim().merge(pre), ns(duration), std::move(work),
        std::move(tag));
    sim().trigger_when(done, task_done);
    if (support::Tracer* t = tracer()) {
      t->alias(done.uid(), task_done.uid());
    }
    ctx.outstanding.push_back(done);
    track(done, LiveOps::Kind::kSingle, s);
  }

  // --- scalar ops -----------------------------------------------------------

  void exec_scalar_op(const ir::Stmt& s, Ctx& ctx) {
    // Deferred scalar dataflow (futures): the new versions become ready
    // once the read versions are; the control chain does not block.
    std::vector<sim::Event> ready;
    auto inputs = std::make_shared<Captures>();
    for (ir::ScalarId r : s.scalar_reads) {
      ScalarVersion& v = latest(ctx.shard, r);
      ready.push_back(v.ready);
      inputs->push_back({r, v.value});
    }
    charge(ctx, cost_.scalar_op_ns, "scalar");

    const sim::Event computed = sim().make_event();
    std::vector<std::shared_ptr<double>> outs;
    for (ir::ScalarId w : s.scalar_writes) {
      ScalarVersion v;
      v.ready = computed;
      outs.push_back(v.value);
      env(ctx.shard).versions[w].push_back(std::move(v));
    }
    auto fn = s.scalar_fn;
    const size_t nscalars = p_.scalars.size();
    auto writes = s.scalar_writes;
    sim().trigger_when(
        computed, sim().merge(ready),
        [fn, inputs, outs, writes, nscalars] {
          std::vector<double> env_in(nscalars, 0.0);
          for (auto& [id, val] : *inputs) env_in[id] = *val;
          std::vector<double> env_out = env_in;
          fn(env_in, env_out);
          for (size_t k = 0; k < writes.size(); ++k) {
            *outs[k] = env_out[writes[k]];
          }
        });
  }

  // --- copies -----------------------------------------------------------------

  const PairTable& copy_table(const ir::Stmt& s) {
    if (s.isect != ir::kNoIntersect) return tables_.at(s.isect);
    auto [it, inserted] = copy_tables_.try_emplace(&s);
    if (inserted) {
      build_copy_table(s, it->second);
      check_sorted(it->second);
    }
    return it->second;
  }

  void build_copy_table(const ir::Stmt& s, PairTable& t) {
    std::vector<PairInfo>& pairs = t.pairs;
    if (s.src_root != rt::kNoId) {
      const rt::PartitionNode& pn = forest().partition(s.copy_dst);
      for (uint64_t j = 0; j < pn.subregions.size(); ++j) {
        pairs.push_back(
            {0, j, forest().region(pn.subregions[j]).ispace.points()});
      }
      return;
    }
    const rt::PartitionNode& ps = forest().partition(s.copy_src);
    t.src_colors = ps.subregions.size();
    if (s.dst_root != rt::kNoId) {
      for (uint64_t i = 0; i < ps.subregions.size(); ++i) {
        pairs.push_back(
            {i, 0, forest().region(ps.subregions[i]).ispace.points()});
      }
      return;
    }
    // All-pairs form (paper §3.3's O(N^2) baseline; empty pairs still
    // cost issue overhead, so every (i, j) keeps its PairInfo). The
    // shallow prefilter only tells us which pairs need the exact
    // interval merge; the rest get empty point sets without paying
    // O(|src| * |dst|) complete intersections on the host.
    const rt::PartitionNode& pd = forest().partition(s.copy_dst);
    const auto shallow =
        rt::shallow_intersections(forest(), s.copy_src, s.copy_dst);
    size_t next = 0;  // shallow pairs arrive sorted by (src, dst) color
    pairs.reserve(ps.subregions.size() * pd.subregions.size());
    for (uint64_t i = 0; i < ps.subregions.size(); ++i) {
      for (uint64_t j = 0; j < pd.subregions.size(); ++j) {
        PairInfo pi{i, j, {}};
        if (next < shallow.size() && shallow[next].src_color == i &&
            shallow[next].dst_color == j) {
          pi.points = rt::complete_intersection(forest(), ps.subregions[i],
                                                pd.subregions[j]);
          ++next;
        }
        pairs.push_back(std::move(pi));
      }
    }
  }

  void exec_copy(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                 uint32_t num_shards) {
    const PairTable& table = copy_table(s);
    for (Ctx& ctx : ctxs) {
      // Sharded execution: the producer shard issues the copy
      // (sequential semantics on the producer side, paper §3.4), so a
      // shard walks only the pairs whose source color it owns.
      const std::span<const PairInfo> pairs =
          ctx.shard == kMainEnv || s.copy_src == rt::kNoId
              ? std::span<const PairInfo>(table.pairs)
              : owned_pairs(table, ctx.shard, num_shards);
      copy_pairs_visited_ += pairs.size();
      for (const PairInfo& pi : pairs) issue_one_copy(s, pi, ctx);
    }
  }

  void issue_one_copy(const ir::Stmt& s, const PairInfo& pi, Ctx& ctx) {
    rt::CopyRequest req;
    req.fields = s.copy_fields;
    req.reduction = s.copy_reduction;
    req.redop = s.copy_redop;
    req.points = pi.points;

    InstanceRef* src;
    InstanceRef* dst;
    if (s.src_root != rt::kNoId) {
      src = &root_instance(s.src_root);
    } else {
      src = &part_instance(s.copy_src, pi.i);
    }
    if (s.dst_root != rt::kNoId) {
      dst = &root_instance(s.dst_root);
    } else {
      dst = &part_instance(s.copy_dst, pi.j);
    }
    req.src_region = src->region;
    req.src_node = src->node;
    req.src_inst = src->inst;
    req.dst_region = dst->region;
    req.dst_node = dst->node;
    req.dst_inst = dst->inst;

    if (req.points.empty()) {
      // Issue overhead is still paid — this is what §3.3 optimizes away.
      attribute(charge(ctx, cost_.copy_issue_ns, "issue:copy"), s);
      ++result_.copies_skipped;
      return;
    }

    std::vector<sim::Event> pre;
    InstanceSync& ssy = sync_of(*src);
    InstanceSync& dsy = sync_of(*dst);
    const bool relaxed = relaxed_copy(s, ctx);
    attr_stmt_ = &s;  // notify sends raised below belong to this copy
    read_pre(ssy, req.src_node, ctx.shard, relaxed, pre);
    // Destination side: WAR against current readers, WAW against the
    // current write epoch. Reduction copies serialize the same way, which
    // fixes their fold order deterministically (issue order). The edges
    // are routed to the *source* node: the transfer is initiated there
    // (the source gathers and injects the payload), so in SPMD mode the
    // destination's readiness travels to the source as a notify first.
    write_pre(dsy, req.src_node, ctx.shard, relaxed, pre);
    attr_stmt_ = nullptr;
    double issue_ns = cost_.copy_issue_ns;
    if (mode_ == ExecMode::kImplicit && cost_.track_dependences) {
      // The master's dynamic analysis also covers runtime copies. The
      // logical requirement is the subregion whose points the pair copy
      // actually moves — a copy through a root instance reads/writes
      // only the opposite side's subregion points, and registering the
      // whole root would leave a user that aliases every later tile
      // operation (physical hazards on the root instance are already
      // ordered by InstanceSync above).
      const rt::RegionId src_logical =
          s.src_root != rt::kNoId
              ? forest().partition(s.copy_dst).subregions[pi.j]
              : forest().partition(s.copy_src).subregions[pi.i];
      const rt::RegionId dst_logical =
          s.dst_root != rt::kNoId
              ? forest().partition(s.copy_src).subregions[pi.i]
              : forest().partition(s.copy_dst).subregions[pi.j];
      const sim::Event completion = sim().make_event();
      const uint64_t before = rt_.deps().pairs_scanned();
      ++op_id_;
      rt::Requirement rr{src_logical, rt::Privilege::kReadOnly,
                         rt::ReduceOp::kSum, req.fields};
      record_dep(rr, completion, pre);
      rt::Requirement wr{dst_logical, rt::Privilege::kReadWrite,
                         rt::ReduceOp::kSum, req.fields};
      record_dep(wr, completion, pre);
      issue_ns += cost_.dep_pair_ns *
                  static_cast<double>(rt_.deps().pairs_scanned() - before);
      sim::Event issued = charge(ctx, issue_ns, "issue:copy");
      attribute(issued, s);
      pre.push_back(issued);
      sim::Event delivered =
          rt_.copies().issue(req, sim().merge(pre));
      attribute(delivered, s);
      sim().trigger_when(completion, delivered);
      note_read(ssy, delivered, req.src_node, ctx.shard, relaxed);
      note_write(dsy, delivered, req.dst_node, ctx.shard, relaxed);
      log_copy_access(s, pi, *src, *dst, pre, delivered, ctx);
      ctx.outstanding.push_back(delivered);
      return;
    }

    sim::Event issued = charge(ctx, issue_ns, "issue:copy");
    attribute(issued, s);
    route_ctx_pre(ctx, req.src_node, {issued}, pre);
    sim::Event delivered =
        rt_.copies().issue(req, sim().merge(pre));
    attribute(delivered, s);
    // Delivery triggers on the destination; the source's WAR edge (a
    // later writer of the source instance) observes it via a notify.
    note_read(ssy, localize(delivered, req.dst_node, req.src_node),
              req.src_node, ctx.shard, relaxed);
    note_write(dsy, delivered, req.dst_node, ctx.shard, relaxed);
    log_copy_access(s, pi, *src, *dst, pre, delivered, ctx);
    ctx.outstanding.push_back(localize(delivered, req.dst_node, ctx.node));
  }

  void log_copy_access(const ir::Stmt& s, const PairInfo& pi,
                       const InstanceRef& src, const InstanceRef& dst,
                       const std::vector<sim::Event>& pre,
                       sim::Event delivered, const Ctx& ctx) {
    if (!check_) return;
    const std::vector<uint64_t> starts = uids_of(pre);
    const uint64_t sub = (pi.i << 32) | pi.j;  // unique per (src, dst) pair
    log_access(check::AccessType::kRead, rt::ReduceOp::kSum, place_of(src),
               region_root(src.region), s.copy_fields, pi.points, starts,
               delivered.uid(), sub, ctx.shard, "copy-src");
    log_access(s.copy_reduction ? check::AccessType::kReduce
                                : check::AccessType::kWrite,
               s.copy_redop, place_of(dst), region_root(dst.region),
               s.copy_fields, pi.points, starts, delivered.uid(), sub,
               ctx.shard, "copy-dst");
  }

  // --- fills -------------------------------------------------------------------

  void exec_fill(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                 uint32_t num_shards) {
    const rt::PartitionNode& pn = forest().partition(s.fill_dst);
    const uint64_t colors = pn.subregions.size();
    for (Ctx& ctx : ctxs) {
      uint64_t begin = 0, end = colors;
      if (ctx.shard != kMainEnv) {
        auto r = passes::shard_block(colors, num_shards, ctx.shard);
        begin = r.begin;
        end = r.end;
      }
      for (uint64_t c = begin; c < end; ++c) {
        InstanceRef& ref = part_instance(s.fill_dst, c);
        InstanceSync& sy = sync_of(ref);
        std::vector<sim::Event> pre;
        write_pre(sy, ref.node, ctx.shard, false, pre);
        route_ctx_pre(ctx, ref.node,
                      {charge(ctx, cost_.fill_issue_ns, "issue:fill")}, pre);
        std::function<void()> work;
        if (rt_.instances() != nullptr) {
          auto* mgr = rt_.instances();
          const rt::InstanceId inst = ref.inst;
          auto fields = s.fill_fields;
          const double value = s.fill_value;
          work = [mgr, inst, fields, value] {
            for (rt::FieldId f : fields) mgr->get(inst).fill_f64(f, value);
          };
        }
        sim::ProcId proc =
            rt_.mapper().compute_proc(ref.node, proc_rr_[ref.node]++);
        support::TraceTag tag;
        if (tracer() != nullptr) {
          tag = {support::TraceCategory::kCompute, "fill"};
        }
        sim::Event done = rt_.machine().proc(proc).spawn(
            sim().merge(pre), ns(500), std::move(work),
            std::move(tag));
        note_write(sy, done, ref.node, ctx.shard);
        if (check_) {
          log_access(check::AccessType::kWrite, rt::ReduceOp::kSum,
                     place_of(ref), region_root(ref.region), s.fill_fields,
                     forest().region(ref.region).ispace.points(),
                     uids_of(pre), done.uid(), c, ctx.shard, "fill");
        }
        ctx.outstanding.push_back(localize(done, ref.node, ctx.node));
        track(done, LiveOps::Kind::kFill, s, c);
      }
    }
  }

  // --- barriers ------------------------------------------------------------------

  void exec_barrier(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                    uint32_t num_shards) {
    if (mutated(s)) {
      // Fault injection: the barrier is deleted outright — no arrivals,
      // no waits. The outstanding sets keep accumulating, so a later
      // (unmutated) barrier still collects them and the run quiesces.
      return;
    }
    auto [it, inserted] = barriers_.try_emplace(&s);
    if (inserted) {
      it->second = std::make_unique<rt::PhaseBarrier>(sim(), rt_.network(),
                                                      num_shards);
    }
    const uint64_t gen = stmt_gen_[&s]++;
    m_barrier_gens_.add(1);
    m_barrier_arrivals_.add(ctxs.size());
    // The generation's release span (runtime track) is sync time induced
    // by the statement sync_insertion anchored this barrier to.
    attribute(it->second->wait(gen), s);
    for (Ctx& ctx : ctxs) {
      // Arrive once everything this shard issued so far has completed;
      // the control chain resumes after the barrier releases.
      std::vector<sim::Event> outstanding = std::move(ctx.outstanding);
      ctx.outstanding.clear();
      outstanding.push_back(ctx.last);
      it->second->arrive(gen, sim().merge(outstanding));
      ctx.last = sim().merge({ctx.last, it->second->wait(gen)});
    }
  }

  // --- intersections ----------------------------------------------------------------

  void exec_intersect(const ir::Stmt& s, Ctx& ctx) {
    const rt::PartitionNode& ps = forest().partition(s.isect_src);
    const rt::PartitionNode& pd = forest().partition(s.isect_dst);
    uint64_t intervals = 0;
    for (rt::RegionId r : ps.subregions) {
      intervals += forest().region(r).ispace.points().interval_count();
    }
    for (rt::RegionId r : pd.subregions) {
      intervals += forest().region(r).ispace.points().interval_count();
    }
    auto pairs =
        rt::shallow_intersections(forest(), s.isect_src, s.isect_dst);
    std::vector<PairInfo> infos;
    uint64_t complete_intervals = 0;
    for (const auto& pr : pairs) {
      PairInfo pi;
      pi.i = pr.src_color;
      pi.j = pr.dst_color;
      pi.points = rt::complete_intersection(forest(),
                                            ps.subregions[pr.src_color],
                                            pd.subregions[pr.dst_color]);
      complete_intervals += pi.points.interval_count();
      if (!pi.points.empty()) infos.push_back(std::move(pi));
    }
    result_.intersection_pairs += infos.size();
    PairTable& table = tables_[s.isect_id];
    table = {std::move(infos), ps.subregions.size()};
    check_sorted(table);

    // The shallow pass runs on the issuing node (paper: a single node);
    // the complete sets are charged per shard at shard start for SPMD,
    // or here for implicit mode.
    charge(ctx,
           cost_.isect_shallow_per_interval_ns * static_cast<double>(intervals),
           "isect:shallow");
    if (mode_ == ExecMode::kImplicit) {
      charge(ctx,
             cost_.isect_complete_per_interval_ns *
                 static_cast<double>(complete_intervals),
             "isect:complete");
    }
  }

  // --- collectives ------------------------------------------------------------------

  void exec_collective(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                       uint32_t num_shards) {
    auto it = pending_red_.find(s.coll_scalar);
    CR_CHECK_MSG(it != pending_red_.end(),
                 "collective without a preceding scalar-reduction launch");
    PendingReduction& pr = it->second;

    if (ctxs.size() == 1 && ctxs[0].shard == kMainEnv) {
      // Implicit / main-task fold: new version ready when all point tasks
      // have contributed; folded in color order (deterministic).
      Ctx& ctx = ctxs[0];
      charge(ctx, cost_.collective_issue_ns, "issue:collective");
      std::vector<sim::Event> evs;
      for (auto& [sh, list] : pr.events) {
        evs.insert(evs.end(), list.begin(), list.end());
      }
      ScalarVersion v;
      const sim::Event readyev = sim().make_event();
      v.ready = readyev;
      auto value = v.value;
      auto partials = pr.partials;
      const rt::ReduceOp op = pr.op;
      env(kMainEnv).versions[s.coll_scalar].push_back(std::move(v));
      sim::Event all = sim().merge(evs);
      if (check_) {
        // The fold reads every partials slot once all contributors done.
        std::vector<uint64_t> starts;
        if (all.uid() != 0) starts.push_back(all.uid());
        log_access(check::AccessType::kRead, pr.op,
                   place_of_partials(pr.partials.get()), rt::kNoId, {0},
                   support::IntervalSet::range(0, pr.colors),
                   std::move(starts), all.uid(), 0, kMainEnv, "scalar-fold");
      }
      sim().trigger_when(readyev, all, [value, partials, op] {
        double acc = rt::reduce_identity(op);
        for (double d : *partials) acc = rt::reduce_fold(op, acc, d);
        *value = acc;
      });
      return;
    }

    // SPMD: dynamic collective over the shards (paper §4.4).
    auto [cit, inserted] = collectives_.try_emplace(&s);
    if (inserted) {
      cit->second = std::make_unique<rt::DynamicCollective>(
          sim(), rt_.network(), num_shards, pr.op);
    }
    rt::DynamicCollective* dc = cit->second.get();
    const uint64_t gen = stmt_gen_[&s]++;
    m_collective_rounds_.add(1);
    attribute(dc->result_event(gen), s);
    for (Ctx& ctx : ctxs) {
      charge(ctx, cost_.collective_issue_ns, "issue:collective");
      auto partials = pr.partials;
      const rt::ReduceOp op = pr.op;
      auto block = passes::shard_block(pr.colors, num_shards, ctx.shard);
      // Fault injection: contribute without waiting for the shard's point
      // tasks — the gather no longer anchors the fold after the writers.
      sim::Event local = mutated(s)
                             ? sim::Event()
                             : sim().merge(pr.events[ctx.shard]);
      dc->contribute(gen, ctx.shard, local, [partials, op, block] {
        double acc = rt::reduce_identity(op);
        for (uint64_t c = block.begin; c < block.end; ++c) {
          acc = rt::reduce_fold(op, acc, (*partials)[c]);
        }
        return acc;
      });
      ScalarVersion v;
      const sim::Event readyev = sim().make_event();
      v.ready = readyev;
      auto value = v.value;
      env(ctx.shard).versions[s.coll_scalar].push_back(std::move(v));
      sim().trigger_when(readyev, dc->result_event(gen),
                         [value, dc, gen] { *value = dc->result(gen); });
    }
    if (check_) {
      // Each contribution folds its shard's partials block. The gather
      // event (the collective's merge of every arrival) is the anchor:
      // it happens-after each shard's local precondition, and blocks are
      // disjoint, so anchoring at the gather adds no false order. Under
      // fault injection every arrival pre-triggers, the merge collapses
      // to uid 0, and the fold reads become unanchored — a race against
      // the point tasks' partials writes.
      const uint64_t gather = dc->gather_uid(gen);
      std::vector<uint64_t> starts;
      if (gather != 0) starts.push_back(gather);
      for (Ctx& ctx : ctxs) {
        auto block = passes::shard_block(pr.colors, num_shards, ctx.shard);
        log_access(check::AccessType::kRead, pr.op,
                   place_of_partials(pr.partials.get()), rt::kNoId, {0},
                   support::IntervalSet::range(block.begin, block.end),
                   starts, gather, ctx.shard, ctx.shard, "partials-fold");
      }
    }
  }

  // ---------------------------------------------------------------------

  rt::Runtime& rt_;
  const ir::Program& p_;
  CostModel cost_;
  ExecMode mode_;
  const bool check_;            // record accesses + HB graph, run checker
  const ir::SyncId mutant_;     // sync op deleted by fault injection
  // Cached registry counters bumped during unroll (avoids the by-name
  // lookup on every barrier/collective generation).
  support::Counter& m_barrier_gens_;
  support::Counter& m_barrier_arrivals_;
  support::Counter& m_collective_rounds_;
  // Statement whose preconditions are being gathered right now; lets
  // edge_event attribute the notify messages it raises (see above).
  const ir::Stmt* attr_stmt_ = nullptr;
};

// ---------------------------------------------------------------------
// Kernel context bound to partition instances.
// ---------------------------------------------------------------------

namespace {

class EngineContext final : public ir::TaskContext {
 public:
  EngineContext(rt::InstanceManager& mgr, const ir::TaskDecl& decl)
      : mgr_(mgr), decl_(decl) {}

  std::vector<rt::InstanceId> insts;
  std::vector<const rt::IndexSpace*> domains;
  const rt::IndexSpace* launch_domain = nullptr;
  const std::vector<std::pair<ir::ScalarId, std::shared_ptr<double>>>*
      captures = nullptr;
  double* red_slot = nullptr;
  rt::ReduceOp red_op = rt::ReduceOp::kSum;

  const rt::IndexSpace& domain() const override { return *launch_domain; }
  const rt::IndexSpace& param_domain(size_t k) const override {
    return *domains[k];
  }
  double read_f64(size_t k, rt::FieldId f, uint64_t pt) const override {
    CR_DCHECK(rt::privilege_reads(decl_.params[k].privilege));
    return mgr_.get(insts[k]).read_f64(f, pt);
  }
  void write_f64(size_t k, rt::FieldId f, uint64_t pt, double v) override {
    CR_DCHECK(rt::privilege_writes(decl_.params[k].privilege));
    mgr_.get(insts[k]).write_f64(f, pt, v);
  }
  int64_t read_i64(size_t k, rt::FieldId f, uint64_t pt) const override {
    CR_DCHECK(rt::privilege_reads(decl_.params[k].privilege));
    return mgr_.get(insts[k]).read_i64(f, pt);
  }
  void write_i64(size_t k, rt::FieldId f, uint64_t pt, int64_t v) override {
    CR_DCHECK(rt::privilege_writes(decl_.params[k].privilege));
    mgr_.get(insts[k]).write_i64(f, pt, v);
  }
  void reduce_f64(size_t k, rt::FieldId f, uint64_t pt, double v) override {
    CR_DCHECK(decl_.params[k].privilege == rt::Privilege::kReduce);
    mgr_.get(insts[k]).reduce_f64(f, pt, decl_.params[k].redop, v);
  }
  double scalar(ir::ScalarId s) const override {
    if (captures != nullptr) {
      for (const auto& [id, val] : *captures) {
        if (id == s) return *val;
      }
    }
    CR_CHECK_MSG(false, "scalar not captured by this task");
  }
  void reduce_scalar(double v) override {
    CR_CHECK_MSG(red_slot != nullptr, "no scalar reduction on this launch");
    *red_slot = rt::reduce_fold(red_op, *red_slot, v);
  }

 private:
  rt::InstanceManager& mgr_;
  const ir::TaskDecl& decl_;
};

}  // namespace

std::function<void()> Engine::Impl::make_kernel_work(
    const ir::TaskDecl& decl, uint64_t color,
    const std::vector<InstanceRef*>& insts, std::shared_ptr<Captures> captures,
    PendingReduction* red) {
  auto ids = std::make_shared<std::vector<rt::InstanceId>>();
  auto doms = std::make_shared<std::vector<const rt::IndexSpace*>>();
  for (const InstanceRef* r : insts) {
    ids->push_back(r->inst);
    doms->push_back(&forest().region(r->region).ispace);
  }
  auto* mgr = rt_.instances();
  const ir::TaskDecl* decl_ptr = &decl;
  std::shared_ptr<std::vector<double>> partials =
      red != nullptr ? red->partials : nullptr;
  const rt::ReduceOp op = red != nullptr ? red->op : rt::ReduceOp::kSum;
  const size_t domain_param = decl.domain_param;
  return [mgr, decl_ptr, ids, doms, captures, partials, op, color,
          domain_param] {
    EngineContext ctx(*mgr, *decl_ptr);
    ctx.insts = *ids;
    ctx.domains = *doms;
    ctx.launch_domain = (*doms)[domain_param];
    ctx.captures = captures.get();
    double slot = rt::reduce_identity(op);
    if (partials) {
      ctx.red_slot = &slot;
      ctx.red_op = op;
    }
    decl_ptr->kernel(ctx);
    if (partials) (*partials)[color] = slot;
  };
}

// =====================================================================
// Engine
// =====================================================================

Engine::Engine(rt::Runtime& rt, const ir::Program& program,
               const ExecConfig& config)
    : impl_(std::make_unique<Impl>(rt, program, config)) {}

Engine::~Engine() = default;

ExecutionResult Engine::run() {
  // The dependence tracker lives on the Runtime and so outlives any one
  // engine, but op ids are per-engine (restarting at 0): without a reset
  // a second run on the same runtime would match its fresh op ids
  // against the first run's stale users and carry over that run's
  // counters. Each run's analysis — and its metrics — starts clean.
  impl_->rt_.deps().reset();
  // The simulator clock is likewise monotone across the runtime's
  // lifetime; the makespan is this run's elapsed virtual time, not the
  // absolute end time (they differ only when an engine reuses a
  // runtime that already simulated something).
  const sim::Time run_start = impl_->sim().now();
  // Copy/network totals also live on the runtime and accumulate across
  // engines; the result reports this run's deltas.
  const uint64_t copies0 = impl_->rt_.copies().copies_issued();
  const uint64_t skipped0 = impl_->rt_.copies().copies_skipped_empty();
  const uint64_t bytes0 = impl_->rt_.copies().bytes_moved();
  const uint64_t messages0 = impl_->rt_.network().messages_sent();
  if (impl_->check_) {
    // Record the happens-before DAG for the whole run: merge edges at
    // unroll, trigger/dispatch causality during simulation.
    impl_->graph_.clear();
    impl_->sim().set_event_graph(&impl_->graph_);
  }
  impl_->unroll();
  impl_->result_.makespan_ns = impl_->sim().run() - run_start;
  impl_->live_ops_.check_quiesced(impl_->sim(), impl_->p_);
  impl_->result_.copies_issued =
      impl_->rt_.copies().copies_issued() - copies0;
  impl_->result_.copies_skipped +=
      impl_->rt_.copies().copies_skipped_empty() - skipped0;
  impl_->result_.bytes_moved = impl_->rt_.copies().bytes_moved() - bytes0;
  impl_->result_.messages = impl_->rt_.network().messages_sent() - messages0;
  impl_->result_.control_busy_ns =
      impl_->rt_.machine()
          .proc(impl_->rt_.mapper().control_proc(0))
          .busy_time();
  // Single source of truth for every counter: mirror each component
  // into the registry and snapshot it into the result.
  support::MetricsRegistry& m = impl_->rt_.metrics();
  impl_->export_metrics(m);
  if (impl_->check_) {
    impl_->sim().set_event_graph(nullptr);
    impl_->result_.check = std::make_shared<check::CheckResult>(
        check::check(impl_->log_, impl_->graph_, impl_->p_));
    const check::CheckStats& cs = impl_->result_.check->stats;
    m.counter("check.accesses").set(cs.accesses);
    m.counter("check.hb_nodes").set(cs.hb_nodes);
    m.counter("check.hb_edges").set(cs.hb_edges);
    m.counter("check.pairs_checked").set(cs.pairs_checked);
    m.counter("check.races").set(cs.races);
  }
  impl_->result_.metrics = m.snapshot();
  return impl_->result_;
}

bool Engine::write_trace(const std::string& path) const {
  if (const support::Tracer* t = impl_->tracer()) {
    return t->write_chrome_json(path);
  }
  // Tracing disabled: still produce a valid (empty) trace-event array.
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("[\n\n]\n", f) >= 0;
  return std::fclose(f) == 0 && written;
}

support::TraceSummary Engine::trace_summary() const {
  const support::Tracer* t = impl_->tracer();
  CR_CHECK_MSG(t != nullptr, "trace_summary requires ExecConfig::trace");
  return t->summarize(impl_->sim().now());
}

double Engine::read_root_f64(rt::RegionId root, rt::FieldId f,
                             uint64_t pt) const {
  auto& ref = impl_->root_instance(root);
  CR_CHECK_MSG(ref.inst != rt::kNoId, "virtual-only run has no data");
  return impl_->rt_.instances()->get(ref.inst).read_f64(f, pt);
}

int64_t Engine::read_root_i64(rt::RegionId root, rt::FieldId f,
                              uint64_t pt) const {
  auto& ref = impl_->root_instance(root);
  CR_CHECK_MSG(ref.inst != rt::kNoId, "virtual-only run has no data");
  return impl_->rt_.instances()->get(ref.inst).read_i64(f, pt);
}

double Engine::scalar(ir::ScalarId id) const {
  // SPMD executions evolve scalars in the replicated shard environments;
  // they are identical across shards, so report shard 0's view. Implicit
  // executions use the main environment.
  const uint32_t env_id = impl_->envs_.count(0) ? 0u : kMainEnv;
  return *impl_->latest(env_id, id).value;
}

}  // namespace cr::exec
