#include "exec/engine.h"

#include <algorithm>
#include <cstdio>

#include "exec/engine_impl.h"
#include "support/check.h"

namespace cr::exec {

Engine::Impl::Impl(rt::Runtime& rt, const ir::Program& program,
                   const ExecConfig& config)
    : rt_(rt),
      mapper_(rt.machine(), config.mapper),
      p_(program),
      cost_(config.cost),
      mode_(config.mode),
      check_(config.check),
      mutant_(config.check_mutate),
      m_point_tasks_(rt.metrics().counter("exec.point_tasks")),
      m_intersection_pairs_(rt.metrics().counter("exec.intersection_pairs")),
      m_copy_pairs_visited_(rt.metrics().counter("exec.copy_pairs_visited")),
      m_copies_skipped_(rt.metrics().counter("exec.copies_skipped")),
      m_barrier_gens_(rt.metrics().counter("rt.barrier.generations")),
      m_barrier_arrivals_(rt.metrics().counter("rt.barrier.arrivals")),
      m_collective_rounds_(rt.metrics().counter("rt.collective.rounds")) {
  proc_rr_.assign(rt_.machine().nodes(), 0);
  if (config.trace && rt_.sim().tracer() == nullptr) {
    owned_tracer_ = std::make_unique<support::Tracer>();
    rt_.sim().set_tracer(owned_tracer_.get());
  }
  for (const ir::ScalarDecl& s : p_.scalars) {
    main_env_.push_back({std::make_shared<double>(s.init), sim::Event()});
  }
}

Engine::Impl::~Impl() {
  // Detach the tracer ExecConfig::trace attached before it is
  // destroyed (the runtime outlives the engine).
  if (owned_tracer_ != nullptr && rt_.sim().tracer() == owned_tracer_.get()) {
    rt_.sim().set_tracer(nullptr);
  }
  if (rt_.sim().event_graph() == &graph_) {
    rt_.sim().set_event_graph(nullptr);
  }
}

// --- scalar environments ----------------------------------------------------

std::shared_ptr<Engine::Impl::Captures> Engine::Impl::capture(
    const std::vector<ir::ScalarId>& ids, uint32_t env,
    std::vector<sim::Event>& pre) {
  if (ids.empty()) return nullptr;
  auto captures = std::make_shared<Captures>();
  const ScalarEnv& versions = this->env(env);
  for (ir::ScalarId id : ids) {
    const ScalarVersion& v = versions[id];
    pre.push_back(v.ready);
    captures->push_back({id, v.value});
  }
  return captures;
}

std::shared_ptr<double> Engine::Impl::new_version(uint32_t env, ir::ScalarId s,
                                                  sim::Event ready) {
  ScalarVersion& v = this->env(env)[s];
  v = {std::make_shared<double>(0.0), ready};
  return v.value;
}

// --- physical instances and per-instance synchronization ---------------

Engine::Impl::PartitionRow& Engine::Impl::part_row(rt::PartitionId p) {
  if (p >= part_inst_.size()) part_inst_.resize(p + 1);
  PartitionRow& row = part_inst_[p];
  const rt::PartitionNode& pn = forest().partition(p);
  if (row.insts.empty()) {
    row.insts.resize(pn.subregions.size());
    std::vector<uint64_t> weights;
    weights.reserve(pn.subregions.size());
    for (rt::RegionId r : pn.subregions) {
      weights.push_back(forest().region(r).ispace.size());
    }
    row.nodes = mapper_.place(weights);
  }
  return row;
}

Engine::Impl::InstanceRef& Engine::Impl::part_instance(rt::PartitionId p,
                                                       uint64_t color) {
  PartitionRow& row = part_row(p);
  const rt::PartitionNode& pn = forest().partition(p);
  CR_CHECK(color < pn.subregions.size());
  InstanceRef& ref = row.insts[color];
  if (ref.region == rt::kNoId) {
    make_instance(ref, pn.subregions[color], row.nodes[color]);
  }
  return ref;
}

Engine::Impl::InstanceRef& Engine::Impl::root_instance(rt::RegionId root) {
  if (root >= root_inst_.size()) root_inst_.resize(root + 1);
  InstanceRef& ref = root_inst_[root];
  // Master data lives with the main task.
  if (ref.region == rt::kNoId) make_instance(ref, root, 0);
  return ref;
}

void Engine::Impl::make_instance(InstanceRef& ref, rt::RegionId region,
                                 uint32_t node) {
  ref.region = region;
  ref.node = node;
  if (rt_.instances() != nullptr) {
    ref.inst = rt_.instances()->create(region, node);
  }
  ref.key = static_cast<uint32_t>(sync_.size());
  sync_.push_back(std::make_unique<InstanceSync>());
}

void Engine::Impl::sync_pre(std::span<const Use> uses, uint32_t node,
                            uint32_t shard, bool relaxed,
                            const ir::Stmt* attr,
                            std::vector<sim::Event>& pre) {
  // Each edge becomes a precondition for the op on `node`, charging a
  // zero-byte notification message when it crosses nodes in SPMD mode
  // (the point-to-point synchronization of paper §3.4).
  auto add = [&](const std::vector<SyncEdge>& edges) {
    for (const SyncEdge& e : edges) {
      if (skip_edge(e, shard, relaxed)) continue;
      if (mode_ != ExecMode::kSpmd || e.node == node) {
        pre.push_back(e.event);
        continue;
      }
      const sim::Event sent = rt_.network().send(e.node, node, 0, e.event);
      if (attr != nullptr) attribute(sent, *attr);
      pre.push_back(sent);
    }
  };
  for (const Use& u : uses) {
    const InstanceSync& s = sync_of(*u.ref);
    add(s.writers);
    if (u.writes()) add(s.readers);
  }
}

void Engine::Impl::note_uses(std::span<const Use> uses, sim::Event done,
                             uint32_t node, uint32_t shard) {
  for (const Use& u : uses) {
    if (u.writes()) note_write(sync_of(*u.ref), done, node, shard);
  }
  for (const Use& u : uses) {
    if (!u.writes()) note_read(sync_of(*u.ref), done, node, shard);
  }
}

void Engine::Impl::note_write(InstanceSync& s, sim::Event done, uint32_t node,
                              uint32_t shard, bool relaxed) {
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
  s.writers.erase(std::remove_if(s.writers.begin(), s.writers.end(), retired),
                  s.writers.end());
  s.readers.erase(std::remove_if(s.readers.begin(), s.readers.end(), retired),
                  s.readers.end());
  s.writers.push_back({done, node, shard, relaxed});
}

void Engine::Impl::route_ctx_pre(Ctx& ctx, uint32_t exec_node,
                                 const std::vector<sim::Event>& ctx_pre,
                                 std::vector<sim::Event>& pre) {
  if (mode_ == ExecMode::kSpmd && exec_node != ctx.node) {
    pre.push_back(
        rt_.network().send(ctx.node, exec_node, 0, sim().merge(ctx_pre)));
    return;
  }
  pre.insert(pre.end(), ctx_pre.begin(), ctx_pre.end());
}

sim::Event Engine::Impl::localize(sim::Event done, uint32_t from,
                                  uint32_t to) {
  if (mode_ != ExecMode::kSpmd || from == to) return done;
  return rt_.network().send(from, to, 0, done);
}

double Engine::Impl::depend(const rt::Requirement& req, sim::Event completion,
                            std::vector<sim::Event>& pre) {
  const uint64_t before = rt_.deps().pairs_scanned();
  const auto deps = rt_.deps().record(op_id_, req, completion);
  pre.insert(pre.end(), deps.begin(), deps.end());
  return cost_.dep_pair_ns *
         static_cast<double>(rt_.deps().pairs_scanned() - before);
}

// --- timeline trace and metrics ---------------------------------------------

void Engine::Impl::declare_tracks() {
  support::Tracer* t = tracer();
  if (t == nullptr) return;
  const sim::Machine& m = rt_.machine();
  for (uint32_t n = 0; n < m.nodes(); ++n) {
    t->set_process_name(n, "node " + std::to_string(n));
    const uint32_t ctl = mapper_.control_proc(n).core;
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

void Engine::Impl::export_metrics(support::MetricsRegistry& m) {
  m.counter("exec.makespan_ns").set(result_.makespan_ns);
  m.counter("exec.copies_issued").set(rt_.copies().copies_issued());
  m.counter("exec.bytes_moved").set(rt_.copies().bytes_moved());
  m.counter("exec.messages").set(rt_.network().messages_sent());
  m.counter("exec.control_busy_ns")
      .set(rt_.machine().proc(mapper_.control_proc(0)).busy_time());

  m.counter("sim.events_processed").set(sim().events_processed());
  m.counter("sim.queue.max_depth").set(sim().max_queue_depth());
  m.counter("sim.net.messages").set(rt_.network().messages_sent());
  m.counter("sim.net.bytes").set(rt_.network().bytes_sent());
  // Busy time over every core: count, sum, min and max.
  sim::Machine& mach = rt_.machine();
  uint64_t cores = 0;
  sim::Time sum = 0;
  sim::Time lo = 0;
  sim::Time hi = 0;
  for (uint32_t n = 0; n < mach.nodes(); ++n) {
    for (uint32_t c = 0; c < mach.cores_per_node(); ++c) {
      const sim::Time busy = mach.proc(n, c).busy_time();
      lo = cores == 0 ? busy : std::min(lo, busy);
      hi = std::max(hi, busy);
      sum += busy;
      ++cores;
    }
  }
  m.counter("sim.proc.busy_ns.count").set(cores);
  m.counter("sim.proc.busy_ns.sum").set(sum);
  m.counter("sim.proc.busy_ns.min").set(lo);
  m.counter("sim.proc.busy_ns.max").set(hi);

  const rt::DependenceTracker& deps = rt_.deps();
  m.counter("rt.dep.pairs_scanned").set(deps.pairs_scanned());
  m.counter("rt.dep.pairs_tested").set(deps.pairs_tested());
  m.counter("rt.dep.dependences").set(deps.dependences_found());
}

// --- race-checker instrumentation -------------------------------------------

const support::IntervalSet& Engine::Impl::partials_range(uint64_t lo,
                                                         uint64_t hi) {
  auto [it, inserted] = partials_sets_.try_emplace({lo, hi}, nullptr);
  if (inserted) it->second = log_.own(support::IntervalSet::range(lo, hi));
  return *it->second;
}

check::AnchorSpan Engine::Impl::log_starts(const std::vector<sim::Event>& pre) {
  check::AnchorSpan span = log_.open_span();
  for (const sim::Event& e : pre) log_.add_anchor(span, e.uid());
  return span;
}

void Engine::Impl::log_access(check::AccessType type, rt::ReduceOp redop,
                              uint64_t place, rt::RegionId root,
                              const std::vector<rt::FieldId>& fields,
                              const support::IntervalSet& points,
                              check::AnchorSpan starts, uint64_t done_uid,
                              uint64_t sub, uint32_t shard, const char* what) {
  log_.accesses.push_back({.place = place,
                           .points = &points,
                           .fields = &fields,
                           .seq = cur_seq_,
                           .sub = sub,
                           .stmt = cur_stmt_,
                           .what = what,
                           .starts = starts,
                           .done_uid = check::AccessLog::uid32(done_uid),
                           .shard = shard,
                           .root = root,
                           .type = type,
                           .redop = redop});
}

void Engine::Impl::log_use(const Use& u, const support::IntervalSet& points,
                           check::AnchorSpan starts, uint64_t done_uid,
                           uint64_t sub, uint32_t shard, const char* what) {
  log_access(u.access(), u.redop, place_of(*u.ref),
             forest().region(u.ref->region).root, *u.fields, points, starts,
             done_uid, sub, shard, what);
}

check::AnchorSpan Engine::Impl::log_uses(std::span<const Use> uses,
                                         const std::vector<sim::Event>& pre,
                                         sim::Event done, uint64_t sub,
                                         uint32_t shard, const char* what) {
  if (!check_) return {};
  const check::AnchorSpan starts = log_starts(pre);
  for (const Use& u : uses) {
    log_use(u, forest().region(u.ref->region).ispace.points(), starts,
            done.uid(), sub, shard, what);
  }
  return starts;
}

// =====================================================================
// Unrolling (lockstep across control contexts)
// =====================================================================

void Engine::Impl::unroll() {
  declare_tracks();
  std::vector<Ctx> main(1);
  main[0].node = 0;
  main[0].shard = kMainEnv;
  main[0].proc = &rt_.machine().proc(mapper_.control_proc(0));
  exec_body(p_.body, main, 1);
}

void Engine::Impl::exec_body(const std::vector<ir::Stmt>& body,
                             std::vector<Ctx>& ctxs, uint32_t num_shards) {
  for (const ir::Stmt& s : body) exec_stmt(s, ctxs, num_shards);
}

void Engine::Impl::exec_stmt(const ir::Stmt& s, std::vector<Ctx>& ctxs,
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
      exec_barrier(s, ctxs);
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

// =====================================================================
// Engine
// =====================================================================

Engine::Engine(rt::Runtime& rt, const ir::Program& program,
               const ExecConfig& config)
    : impl_(std::make_unique<Impl>(rt, program, config)) {}

Engine::~Engine() = default;

ExecutionResult Engine::run() {
  // The unroll wires events from the simulator's current time on, and
  // the access log and pair tables are per-run state: a second run on
  // one engine would schedule into the past and mix two runs' logs.
  CR_CHECK_MSG(!impl_->ran_,
               "Engine::run() is one-shot: construct a new Engine per run");
  impl_->ran_ = true;
  // The simulator, the dependence tracker, the copy and network totals
  // and the metrics registry live on the Runtime, so the metrics read
  // them as this run's own. A callback scheduled before run() has not
  // fired yet, so it passes.
  CR_CHECK_MSG(impl_->sim().events_processed() == 0,
               "Engine::run(): this Runtime has already run; one Runtime "
               "hosts one run: construct a new Runtime per run");
  if (impl_->check_) {
    // Record the happens-before DAG for the whole run: merge edges at
    // unroll, trigger/dispatch causality during simulation.
    impl_->graph_.clear();
    impl_->sim().set_event_graph(&impl_->graph_);
  }
  impl_->unroll();
  impl_->result_.makespan_ns = impl_->sim().run();
  impl_->live_ops_.check_quiesced(impl_->sim(), impl_->p_);
  // The registry is the one record of every count: mirror each
  // component's totals into it and snapshot it into the result.
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

const check::AccessLog& Engine::access_log() const { return impl_->log_; }

const sim::EventGraph& Engine::event_graph() const { return impl_->graph_; }

std::vector<const support::IntervalSet*> Engine::pair_point_sets() const {
  std::vector<const support::IntervalSet*> out;
  auto add = [&](const Impl::PairTable& t) {
    for (const Impl::PairInfo& pi : t.pairs) out.push_back(pi.points);
  };
  for (const auto& [id, t] : impl_->tables_) add(t);
  for (const auto& [stmt, t] : impl_->copy_tables_) add(t);
  return out;
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

double Engine::scalar(ir::ScalarId id) const {
  return *impl_->main_env_[id].value;
}

}  // namespace cr::exec
