// Synchronization handlers: phase barriers, scalar-reduction collectives
// and deferred scalar arithmetic.
#include "exec/engine_impl.h"
#include "support/check.h"

namespace cr::exec {

void Engine::Impl::exec_barrier(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                                uint32_t num_shards) {
  if (mutated(s)) {
    // Fault injection: the barrier is deleted outright — no arrivals,
    // no waits. The outstanding sets keep accumulating, so a later
    // (unmutated) barrier still collects them and the run quiesces.
    return;
  }
  auto [it, inserted] = barriers_.try_emplace(&s);
  if (inserted) {
    it->second =
        std::make_unique<rt::PhaseBarrier>(sim(), rt_.network(), num_shards);
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
    for (auto& [sh, list] : pr.events) {
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
  auto [cit, inserted] = collectives_.try_emplace(&s);
  if (inserted) {
    cit->second = std::make_unique<rt::DynamicCollective>(
        sim(), rt_.network(), num_shards, op);
  }
  rt::DynamicCollective* dc = cit->second.get();
  const uint64_t gen = stmt_gen_[&s]++;
  m_collective_rounds_.add(1);
  attribute(dc->result_event(gen), s);
  for (Ctx& ctx : ctxs) {
    charge(ctx, cost_.collective_issue_ns, "issue:collective");
    const rt::BlockRange block = owned_colors(pr.colors, ctx, num_shards);
    // Fault injection: contribute without waiting for the shard's point
    // tasks — the gather no longer anchors the fold after the writers.
    const sim::Event local =
        mutated(s) ? sim::Event() : sim().merge(pr.events[ctx.shard]);
    dc->contribute(gen, ctx.shard, local, [partials, op, block] {
      double acc = rt::reduce_identity(op);
      for (uint64_t c = block.begin; c < block.end; ++c) {
        acc = rt::reduce_fold(op, acc, (*partials)[c]);
      }
      return acc;
    });
    const sim::Event ready = sim().make_event();
    auto value = new_version(ctx.shard, s.coll_scalar, ready);
    sim().trigger_when(ready, dc->result_event(gen),
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
    check::AnchorSpan starts = log_.open_span();
    log_.add_anchor(starts, gather);
    for (Ctx& ctx : ctxs) {
      const rt::BlockRange block = owned_colors(pr.colors, ctx, num_shards);
      log_access(check::AccessType::kRead, op,
                 place_of_partials(partials.get()), rt::kNoId,
                 check::kPartialsFields, partials_range(block.begin, block.end),
                 starts, gather, ctx.shard, ctx.shard, "partials-fold");
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
        for (auto& [id, val] : *inputs) env_in[id] = *val;
        std::vector<double> env_out = env_in;
        fn(env_in, env_out);
        for (size_t k = 0; k < writes.size(); ++k) {
          *outs[k] = env_out[writes[k]];
        }
      });
}

}  // namespace cr::exec
