// Task-issuing handlers: index launches, single tasks and fills, and the
// kernel context Real-mode task bodies run against.
#include <string>

#include "exec/engine_impl.h"
#include "support/check.h"

namespace cr::exec {

// --- shared task steps ------------------------------------------------------

sim::Event Engine::Impl::spawn_on(uint32_t node,
                                  const std::vector<sim::Event>& pre,
                                  double duration_ns,
                                  std::function<void()> work,
                                  support::TraceTag tag) {
  const sim::ProcId proc = mapper_.compute_proc(node, proc_rr_.at(node)++);
  return rt_.machine().proc(proc).spawn(sim().merge(pre), ns(duration_ns),
                                        std::move(work), std::move(tag));
}

void Engine::Impl::spawn_task(sim::Event done, uint32_t node,
                              const std::vector<sim::Event>& pre,
                              double duration_ns, std::function<void()> work,
                              support::TraceTag tag) {
  const sim::Event ran =
      spawn_on(node, pre, duration_ns, std::move(work), std::move(tag));
  sim().trigger_when(done, ran);
  if (support::Tracer* t = tracer()) {
    // The user-visible `done` fires with the task span as producer.
    t->alias(done.uid(), ran.uid());
  }
}

double Engine::Impl::task_duration(const ir::TaskDecl& decl,
                                   std::span<const Use> uses) {
  return decl.cost_base_ns +
         decl.cost_per_elem_ns *
             static_cast<double>(
                 forest().region(uses[decl.domain_param].ref->region)
                     .ispace.size());
}

// --- launches ---------------------------------------------------------------

void Engine::Impl::exec_launch(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                               uint32_t num_shards) {
  const ir::TaskDecl& decl = p_.task(s.task);

  PendingReduction* red = nullptr;
  if (s.scalar_red) {
    PendingReduction& pr = pending_red_[s.scalar_red->target];
    pr.partials = std::make_shared<std::vector<double>>(
        s.launch_colors, rt::reduce_identity(s.scalar_red->op));
    pr.op = s.scalar_red->op;
    pr.colors = s.launch_colors;
    pr.events.assign(ctxs.size(), {});
    red = &pr;
  }

  const std::span<const uint32_t> nodes = launch_nodes(s, decl);
  for (Ctx& ctx : ctxs) {
    const rt::BlockRange owned = owned_colors(s.launch_colors, ctx, num_shards);
    for (uint64_t c = owned.begin; c < owned.end; ++c) {
      issue_point_task(s, decl, nodes[c], c, ctx, red);
    }
  }
}

std::span<const uint32_t> Engine::Impl::launch_nodes(const ir::Stmt& s,
                                                     const ir::TaskDecl& decl) {
  const bool has_domain = decl.domain_param < s.args.size();
  if (has_domain) {
    const ir::RegionArg& a = s.args[decl.domain_param];
    if (a.proj.identity() &&
        forest().partition(a.partition).subregions.size() == s.launch_colors) {
      return part_row(a.partition).nodes;
    }
  }
  auto [it, inserted] = launch_nodes_.try_emplace(&s);
  if (inserted) {
    std::vector<uint64_t> weights(s.launch_colors, 1);
    if (has_domain) {
      const ir::RegionArg& a = s.args[decl.domain_param];
      const rt::PartitionNode& pn = forest().partition(a.partition);
      for (uint64_t c = 0; c < s.launch_colors; ++c) {
        const uint64_t sub = a.proj(c);
        CR_CHECK(sub < pn.subregions.size());
        weights[c] = forest().region(pn.subregions[sub]).ispace.size();
      }
    }
    it->second = mapper_.place(weights);
  }
  return it->second;
}

void Engine::Impl::issue_point_task(const ir::Stmt& s,
                                    const ir::TaskDecl& decl, uint32_t node,
                                    uint64_t color, Ctx& ctx,
                                    PendingReduction* red) {
  m_point_tasks_.add();
  ++op_id_;

  const sim::Event done = sim().make_event();
  std::vector<Use> uses;
  uses.reserve(s.args.size());
  for (const ir::RegionArg& a : s.args) {
    uses.push_back({&part_instance(a.partition, a.proj(color)), a.privilege,
                    a.redop, &a.fields});
  }

  // Collect every precondition *before* registering this task anywhere:
  // a task passing the same region through several arguments must not
  // depend on itself.
  std::vector<sim::Event> pre;
  sync_pre(uses, node, ctx.shard, false, nullptr, pre);
  double issue_ns = mode_ == ExecMode::kImplicit ? cost_.implicit_launch_ns
                                                 : cost_.shard_launch_ns;
  if (analyzing()) {
    for (const Use& u : uses) {
      issue_ns += depend({u.ref->region, u.privilege, u.redop, *u.fields},
                         done, pre);
    }
  }
  note_uses(uses, done, node, ctx.shard);

  // The scalar readys and the issue charge trigger on the issuing control
  // thread's node; route them to the executing node as one dispatch.
  std::vector<sim::Event> ctx_pre;
  auto captures = capture(s.scalar_args, ctx.shard, ctx_pre);
  ctx_pre.push_back(charge(ctx, issue_ns, "issue:task"));
  route_ctx_pre(ctx, node, ctx_pre, pre);

  const check::AnchorSpan starts =
      log_uses(uses, pre, done, color, ctx.shard, "task");
  if (check_ && red != nullptr) {
    // The point task also writes its slot of the scalar-reduction
    // partials buffer, read later by the collective's fold.
    log_access(check::AccessType::kWrite, rt::ReduceOp::kSum,
               place_of_partials(red->partials.get()), rt::kNoId,
               check::kPartialsFields, partials_range(color, color + 1),
               starts, done.uid(), color, ctx.shard, "partials");
  }

  double duration = task_duration(decl, uses);
  if (cost_.task_slow_prob > 0) {
    uint64_t h = op_id_ * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < cost_.task_slow_prob) duration *= 1.0 + cost_.task_slow_frac;
  }
  spawn_task(done, node, pre, duration,
             kernel_work(decl, color, uses, captures, red),
             compute_tag([&] {
               return decl.name + "[" + std::to_string(color) + "]";
             }));

  // The control thread observes the completion on its own node; the
  // localized event is what later same-context merges (barrier
  // arrivals, reduction folds) consume.
  const sim::Event home = localize(done, node, ctx.node);
  ctx.outstanding.push_back(home);
  track(done, LiveOps::Kind::kTask, s, color);
  if (red != nullptr) {
    red->events[ctx.shard == kMainEnv ? 0 : ctx.shard].push_back(home);
  }
}

// --- single tasks -----------------------------------------------------------

// A single task runs on node 0 with the master data and the main task.
// Unlike a point task it takes no op id (no slow-task noise), and gets no
// dependence analysis.
void Engine::Impl::exec_single(const ir::Stmt& s, Ctx& ctx) {
  const ir::TaskDecl& decl = p_.task(s.task);
  const sim::Event done = sim().make_event();
  std::vector<Use> uses;
  uses.reserve(s.regions.size());
  for (size_t k = 0; k < s.regions.size(); ++k) {
    CR_CHECK_MSG(forest().region(s.regions[k]).parent == rt::kNoId,
                 "single tasks run on root regions");
    const ir::TaskParam& param = decl.params[k];
    uses.push_back({&root_instance(s.regions[k]), param.privilege,
                    param.redop, &param.fields});
  }

  std::vector<sim::Event> pre;
  sync_pre(uses, 0, ctx.shard, false, nullptr, pre);
  note_uses(uses, done, 0, ctx.shard);
  auto captures = capture(s.scalar_args, ctx.shard, pre);
  pre.push_back(charge(ctx, cost_.single_task_issue_ns, "issue:single"));
  log_uses(uses, pre, done, 0, ctx.shard, "single-task");

  spawn_task(done, 0, pre, task_duration(decl, uses),
             kernel_work(decl, 0, uses, captures, nullptr),
             compute_tag([&] { return decl.name; }));
  ctx.outstanding.push_back(done);
  track(done, LiveOps::Kind::kSingle, s);
}

// --- fills ------------------------------------------------------------------

void Engine::Impl::exec_fill(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                             uint32_t num_shards) {
  const uint64_t colors = forest().partition(s.fill_dst).subregions.size();
  for (Ctx& ctx : ctxs) {
    const rt::BlockRange owned = owned_colors(colors, ctx, num_shards);
    for (uint64_t c = owned.begin; c < owned.end; ++c) {
      const Use use{&part_instance(s.fill_dst, c),
                    rt::Privilege::kWriteDiscard, rt::ReduceOp::kSum,
                    &s.fill_fields};
      const uint32_t node = use.ref->node;
      std::vector<sim::Event> pre;
      sync_pre({&use, 1}, node, ctx.shard, false, nullptr, pre);
      route_ctx_pre(ctx, node,
                    {charge(ctx, cost_.fill_issue_ns, "issue:fill")}, pre);
      std::function<void()> work;
      if (rt_.instances() != nullptr) {
        auto* mgr = rt_.instances();
        const rt::InstanceId inst = use.ref->inst;
        auto fields = s.fill_fields;
        const double value = s.fill_value;
        work = [mgr, inst, fields, value] {
          for (rt::FieldId f : fields) mgr->get(inst).fill_f64(f, value);
        };
      }
      const sim::Event done =
          spawn_on(node, pre, 500, std::move(work),
                   compute_tag([] { return std::string("fill"); }));
      note_uses({&use, 1}, done, node, ctx.shard);
      log_uses({&use, 1}, pre, done, c, ctx.shard, "fill");
      ctx.outstanding.push_back(localize(done, node, ctx.node));
      track(done, LiveOps::Kind::kFill, s, c);
    }
  }
}

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

std::function<void()> Engine::Impl::kernel_work(
    const ir::TaskDecl& decl, uint64_t color, std::span<const Use> uses,
    std::shared_ptr<Captures> captures, PendingReduction* red) {
  if (rt_.instances() == nullptr || !decl.kernel) return nullptr;
  auto ids = std::make_shared<std::vector<rt::InstanceId>>();
  auto doms = std::make_shared<std::vector<const rt::IndexSpace*>>();
  for (const Use& u : uses) {
    ids->push_back(u.ref->inst);
    doms->push_back(&forest().region(u.ref->region).ispace);
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

}  // namespace cr::exec
