// Synchronization handlers: phase barriers, scalar-reduction collectives
// and deferred scalar arithmetic.
#include "exec/engine_impl.h"
#include "rt/barrier.h"
#include "support/check.h"

namespace cr::exec {

void Engine::Impl::exec_barrier(const ir::Stmt& s, std::vector<Ctx>& ctxs) {
  if (mutated(s)) {
    // Fault injection: the barrier is deleted outright — no arrivals,
    // no waits. The outstanding sets keep accumulating, so a later
    // (unmutated) barrier still collects them and the run quiesces.
    return;
  }
  m_barrier_gens_.add(1);
  m_barrier_arrivals_.add(ctxs.size());
  const sim::Event done = sim().make_event();
  // The release span (runtime track) is sync time induced by the
  // statement sync_insertion anchored this barrier to.
  attribute(done, s);
  std::vector<sim::Event> arrivals;
  arrivals.reserve(ctxs.size());
  for (Ctx& ctx : ctxs) {
    // Arrive once everything this shard issued so far has completed;
    // the control chain resumes after the barrier releases.
    std::vector<sim::Event> outstanding = std::move(ctx.outstanding);
    ctx.outstanding.clear();
    outstanding.push_back(ctx.last);
    arrivals.push_back(sim().merge(outstanding));
    // The last arrival completes the rendezvous: wire it before that
    // shard waits on the release, which keeps event creation in order.
    if (arrivals.size() == ctxs.size()) {
      rt::rendezvous(sim(), rt_.network(), arrivals, done, "barrier", 0);
    }
    ctx.last = sim().merge({ctx.last, done});
  }
}

void Engine::Impl::exec_collective(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                                   uint32_t num_shards) {
  auto it = pending_red_.find(s.coll_scalar);
  CR_CHECK_MSG(it != pending_red_.end(),
               "collective without a preceding scalar-reduction launch");
  PendingReduction& pr = it->second;
  auto partials = pr.partials;
  const rt::ReduceOp op = pr.op;

  if (ctxs.size() == 1 && ctxs[0].shard == kMainEnv) {
    // Implicit / main-task fold: new version ready when all point tasks
    // have contributed; folded in color order (deterministic).
    charge(ctxs[0], cost_.collective_issue_ns, "issue:collective");
    std::vector<sim::Event> evs;
    for (const std::vector<sim::Event>& list : pr.events) {
      evs.insert(evs.end(), list.begin(), list.end());
    }
    const sim::Event ready = sim().make_event();
    auto value = new_version(kMainEnv, s.coll_scalar, ready);
    const sim::Event all = sim().merge(evs);
    if (check_) {
      // The fold reads every partials slot once all contributors done.
      check::AnchorSpan starts = log_.open_span();
      log_.add_anchor(starts, all.uid());
      log_access(check::AccessType::kRead, op,
                 place_of_partials(partials.get()), rt::kNoId,
                 check::kPartialsFields, partials_range(0, pr.colors), starts,
                 all.uid(), 0, kMainEnv, "scalar-fold");
    }
    sim().trigger_when(ready, all, [value, partials, op] {
      double acc = rt::reduce_identity(op);
      for (double d : *partials) acc = rt::reduce_fold(op, acc, d);
      *value = acc;
    });
    return;
  }

  // SPMD: dynamic collective over the shards (paper §4.4).
  m_collective_rounds_.add(1);
  const sim::Event done = sim().make_event();
  attribute(done, s);
  // At the gather, each shard's block of partials is folded, and the
  // blocks are folded in rank order (deterministic regardless of arrival
  // order) into one cell that every shard's new version copies on
  // release.
  auto result = std::make_shared<double>(0.0);
  auto fold = [partials, op, colors = pr.colors, num_shards, result] {
    double acc = rt::reduce_identity(op);
    for (uint32_t x = 0; x < num_shards; ++x) {
      const rt::BlockRange block = rt::block_range(colors, num_shards, x);
      double part = rt::reduce_identity(op);
      for (uint64_t c = block.begin; c < block.end; ++c) {
        part = rt::reduce_fold(op, part, (*partials)[c]);
      }
      acc = rt::reduce_fold(op, acc, part);
    }
    *result = acc;
  };
  std::vector<sim::Event> arrivals;
  arrivals.reserve(ctxs.size());
  sim::Event gather;
  for (Ctx& ctx : ctxs) {
    charge(ctx, cost_.collective_issue_ns, "issue:collective");
    // Fault injection: contribute without waiting for the shard's point
    // tasks — the gather no longer anchors the fold after the writers.
    arrivals.push_back(mutated(s) ? sim::Event()
                                  : sim().merge(pr.events.at(ctx.shard)));
    if (arrivals.size() == ctxs.size()) {
      gather = rt::rendezvous(sim(), rt_.network(), arrivals, done,
                              "allreduce", 1, std::move(fold));
    }
    const sim::Event ready = sim().make_event();
    auto value = new_version(ctx.shard, s.coll_scalar, ready);
    sim().trigger_when(ready, done, [value, result] { *value = *result; });
  }
  if (check_) {
    // Each contribution folds its shard's partials block. The gather
    // event (the collective's merge of every arrival) is the anchor:
    // it happens-after each shard's local precondition, and blocks are
    // disjoint, so anchoring at the gather adds no false order. Under
    // fault injection every arrival pre-triggers, the merge collapses
    // to uid 0, and the fold reads become unanchored — a race against
    // the point tasks' partials writes.
    check::AnchorSpan starts = log_.open_span();
    log_.add_anchor(starts, gather.uid());
    for (Ctx& ctx : ctxs) {
      const rt::BlockRange block = owned_colors(pr.colors, ctx, num_shards);
      log_access(check::AccessType::kRead, op,
                 place_of_partials(partials.get()), rt::kNoId,
                 check::kPartialsFields, partials_range(block.begin, block.end),
                 starts, gather.uid(), ctx.shard, ctx.shard, "partials-fold");
    }
  }
}

void Engine::Impl::exec_scalar_op(const ir::Stmt& s, Ctx& ctx) {
  // Deferred scalar dataflow (futures): the new versions become ready
  // once the read versions are; the control chain does not block.
  std::vector<sim::Event> ready;
  auto inputs = capture(s.scalar_reads, ctx.shard, ready);
  charge(ctx, cost_.scalar_op_ns, "scalar");

  const sim::Event computed = sim().make_event();
  std::vector<std::shared_ptr<double>> outs;
  for (ir::ScalarId w : s.scalar_writes) {
    outs.push_back(new_version(ctx.shard, w, computed));
  }
  auto fn = s.scalar_fn;
  const size_t nscalars = p_.scalars.size();
  auto writes = s.scalar_writes;
  sim().trigger_when(
      computed, sim().merge(ready), [fn, inputs, outs, writes, nscalars] {
        std::vector<double> env_in(nscalars, 0.0);
        if (inputs) {
          for (auto& [id, val] : *inputs) env_in[id] = *val;
        }
        std::vector<double> env_out = env_in;
        fn(env_in, env_out);
        for (size_t k = 0; k < writes.size(); ++k) {
          *outs[k] = env_out[writes[k]];
        }
      });
}

}  // namespace cr::exec
