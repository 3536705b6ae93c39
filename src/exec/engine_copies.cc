// Copy-issuing handlers: dynamic intersections, copy pair tables, the
// copies themselves, and the shard launch that charges each shard for
// the complete intersections of the pairs it owns.
#include <algorithm>
#include <string>

#include "exec/engine_impl.h"
#include "rt/intersect.h"
#include "support/check.h"

namespace cr::exec {

namespace {
// The points of every empty all-pairs entry.
const support::IntervalSet kNoPoints;
}  // namespace

// --- pair tables ------------------------------------------------------------

void Engine::Impl::check_sorted(const PairTable& t) {
  CR_CHECK_MSG(std::is_sorted(t.pairs.begin(), t.pairs.end(),
                              [](const PairInfo& a, const PairInfo& b) {
                                return a.i < b.i;
                              }),
               "copy pair table not sorted by source color");
  CR_CHECK(t.pairs.empty() || t.pairs.back().i < t.src_colors);
}

std::span<const Engine::Impl::PairInfo> Engine::Impl::owned_pairs(
    const PairTable& t, rt::BlockRange owned) {
  const auto lo = std::partition_point(
      t.pairs.begin(), t.pairs.end(),
      [&](const PairInfo& pi) { return pi.i < owned.begin; });
  const auto hi = std::partition_point(
      lo, t.pairs.end(), [&](const PairInfo& pi) { return pi.i < owned.end; });
  return {lo, hi};
}

void Engine::Impl::exec_intersect(const ir::Stmt& s, Ctx& ctx) {
  const rt::PartitionNode& ps = forest().partition(s.isect_src);
  const rt::PartitionNode& pd = forest().partition(s.isect_dst);
  uint64_t intervals = 0;
  for (rt::RegionId r : ps.subregions) {
    intervals += forest().region(r).ispace.points().interval_count();
  }
  for (rt::RegionId r : pd.subregions) {
    intervals += forest().region(r).ispace.points().interval_count();
  }
  // The access log and in-flight copies point into the table's sets.
  auto [it, inserted] = tables_.try_emplace(s.isect_id);
  CR_CHECK_MSG(inserted, "intersection table built twice: the access log "
                         "and copy requests point into it");
  PairTable& table = it->second;
  table.src_colors = ps.subregions.size();
  auto pairs = rt::shallow_intersections(forest(), s.isect_src, s.isect_dst);
  uint64_t complete_intervals = 0;
  for (const auto& pr : pairs) {
    support::IntervalSet points = rt::complete_intersection(
        forest(), ps.subregions[pr.src_color], pd.subregions[pr.dst_color]);
    complete_intervals += points.interval_count();
    if (points.empty()) continue;
    table.pairs.push_back({pr.src_color, pr.dst_color,
                           &table.sets.emplace_back(std::move(points))});
  }
  m_intersection_pairs_.add(table.pairs.size());
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

const Engine::Impl::PairTable& Engine::Impl::copy_table(const ir::Stmt& s) {
  if (s.isect != ir::kNoIntersect) return tables_.at(s.isect);
  auto [it, inserted] = copy_tables_.try_emplace(&s);
  if (inserted) {
    build_copy_table(s, it->second);
    check_sorted(it->second);
  }
  return it->second;
}

void Engine::Impl::build_copy_table(const ir::Stmt& s, PairTable& t) {
  std::vector<PairInfo>& pairs = t.pairs;
  if (s.src_root != rt::kNoId) {
    const rt::PartitionNode& pn = forest().partition(s.copy_dst);
    for (uint64_t j = 0; j < pn.subregions.size(); ++j) {
      pairs.push_back(
          {0, j, &forest().region(pn.subregions[j]).ispace.points()});
    }
    return;
  }
  const rt::PartitionNode& ps = forest().partition(s.copy_src);
  t.src_colors = ps.subregions.size();
  if (s.dst_root != rt::kNoId) {
    for (uint64_t i = 0; i < ps.subregions.size(); ++i) {
      pairs.push_back(
          {i, 0, &forest().region(ps.subregions[i]).ispace.points()});
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
      PairInfo pi{i, j, &kNoPoints};
      if (next < shallow.size() && shallow[next].src_color == i &&
          shallow[next].dst_color == j) {
        pi.points = &t.sets.emplace_back(rt::complete_intersection(
            forest(), ps.subregions[i], pd.subregions[j]));
        ++next;
      }
      pairs.push_back(pi);
    }
  }
}

// --- copies -----------------------------------------------------------------

void Engine::Impl::exec_copy(const ir::Stmt& s, std::vector<Ctx>& ctxs,
                             uint32_t num_shards) {
  const PairTable& table = copy_table(s);
  for (Ctx& ctx : ctxs) {
    // Sharded execution: the producer shard issues the copy
    // (sequential semantics on the producer side, paper §3.4), so a
    // shard walks only the pairs whose source color it owns.
    const std::span<const PairInfo> pairs =
        s.copy_src == rt::kNoId
            ? std::span<const PairInfo>(table.pairs)
            : owned_pairs(table,
                          owned_colors(table.src_colors, ctx, num_shards));
    m_copy_pairs_visited_.add(pairs.size());
    for (const PairInfo& pi : pairs) issue_one_copy(s, pi, ctx);
  }
}

void Engine::Impl::issue_one_copy(const ir::Stmt& s, const PairInfo& pi,
                                  Ctx& ctx) {
  InstanceRef& src = s.src_root != rt::kNoId ? root_instance(s.src_root)
                                             : part_instance(s.copy_src, pi.i);
  InstanceRef& dst = s.dst_root != rt::kNoId ? root_instance(s.dst_root)
                                             : part_instance(s.copy_dst, pi.j);
  if (pi.points->empty()) {
    // Issue overhead is still paid — this is what §3.3 optimizes away.
    attribute(charge(ctx, cost_.copy_issue_ns, "issue:copy"), s);
    m_copies_skipped_.add();
    return;
  }

  const Use uses[] = {
      {&src, rt::Privilege::kReadOnly, rt::ReduceOp::kSum, &s.copy_fields},
      {&dst,
       s.copy_reduction ? rt::Privilege::kReduce : rt::Privilege::kReadWrite,
       s.copy_redop, &s.copy_fields}};
  // Destination side: WAR against current readers, WAW against the
  // current write epoch. Reduction copies serialize the same way, which
  // fixes their fold order deterministically (issue order). Both sides'
  // edges are routed to the *source* node: the transfer is initiated
  // there (the source gathers and injects the payload), so in SPMD mode
  // the destination's readiness travels to the source as a notify first.
  std::vector<sim::Event> pre;
  const bool relaxed = relaxed_copy(s, ctx);
  sync_pre(uses, src.node, ctx.shard, relaxed, &s, pre);
  double issue_ns = cost_.copy_issue_ns;
  const bool analyze = analyzing();
  sim::Event completion;
  if (analyze) {
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
    completion = sim().make_event();
    ++op_id_;
    issue_ns += depend({src_logical, rt::Privilege::kReadOnly,
                        rt::ReduceOp::kSum, s.copy_fields},
                       completion, pre);
    issue_ns += depend({dst_logical, rt::Privilege::kReadWrite,
                        rt::ReduceOp::kSum, s.copy_fields},
                       completion, pre);
  }
  const sim::Event issued = charge(ctx, issue_ns, "issue:copy");
  attribute(issued, s);
  route_ctx_pre(ctx, src.node, {issued}, pre);

  const rt::CopyRequest req{.src_region = src.region,
                            .dst_region = dst.region,
                            .src_node = src.node,
                            .dst_node = dst.node,
                            .src_inst = src.inst,
                            .dst_inst = dst.inst,
                            .points = *pi.points,
                            .fields = s.copy_fields,
                            .reduction = s.copy_reduction,
                            .redop = s.copy_redop};
  const sim::Event delivered = rt_.copies().issue(req, sim().merge(pre));
  attribute(delivered, s);
  if (analyze) sim().trigger_when(completion, delivered);
  // Delivery triggers on the destination; the source's WAR edge (a
  // later writer of the source instance) observes it via a notify.
  note_read(sync_of(src), localize(delivered, dst.node, src.node), src.node,
            ctx.shard, relaxed);
  note_write(sync_of(dst), delivered, dst.node, ctx.shard, relaxed);
  if (check_) {
    const check::AnchorSpan starts = log_starts(pre);
    const uint64_t sub = (pi.i << 32) | pi.j;  // unique per (src, dst) pair
    log_use(uses[0], *pi.points, starts, delivered.uid(), sub, ctx.shard,
            "copy-src");
    log_use(uses[1], *pi.points, starts, delivered.uid(), sub, ctx.shard,
            "copy-dst");
  }
  ctx.outstanding.push_back(localize(delivered, dst.node, ctx.node));
}

// --- shards -----------------------------------------------------------------

void Engine::Impl::exec_shards(const ir::Stmt& s, std::vector<Ctx>& main) {
  CR_CHECK_MSG(mode_ == ExecMode::kSpmd, "shard body reached in implicit mode");
  CR_CHECK(main.size() == 1);
  const uint32_t num_shards = s.num_shards;
  std::vector<Ctx> shards(num_shards);
  if (shard_envs_.size() < num_shards) shard_envs_.resize(num_shards);
  for (uint32_t x = 0; x < num_shards; ++x) {
    shards[x].shard = x;
    shards[x].node = mapper_.shard_node(x, num_shards);
    const sim::ProcId ctl = mapper_.control_proc(shards[x].node);
    shards[x].proc = &rt_.machine().proc(ctl);
    if (support::Tracer* t = tracer()) {
      t->declare_track(ctl.node, ctl.core,
                       "shard " + std::to_string(x) + " (control)");
    }
    shard_envs_[x] = main_env_;
    // Shards start once the main task has issued them. The launch of a
    // remote shard is a real network dispatch: localize the handoff so
    // the shard's control chain starts on its own node.
    shards[x].last = localize(main[0].last, main[0].node, shards[x].node);
    // Per-shard cost of the complete intersections for owned pairs
    // (paper §3.3: computed inside the individual shards).
    double complete_ns = 0;
    for (const auto& [id, table] : tables_) {
      const rt::BlockRange owned =
          owned_colors(table.src_colors, shards[x], num_shards);
      for (const PairInfo& pi : owned_pairs(table, owned)) {
        complete_ns += cost_.isect_complete_per_interval_ns *
                       static_cast<double>(pi.points->interval_count());
      }
    }
    if (complete_ns > 0) charge(shards[x], complete_ns, "isect:complete");
  }
  exec_body(s.body, shards, num_shards);
  main_env_ = shard_envs_.at(0);
  // The main task resumes after the shard launch itself (deferred); the
  // finalization copies it issues synchronize through instance events.
  charge(main[0], cost_.single_task_issue_ns, "resume");
}

}  // namespace cr::exec
