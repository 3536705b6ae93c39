// Property tests for the cross-shard happens-before race checker:
//
//  1. Soundness of the pipeline: every application, under both
//     executors and both synchronization regimes (p2p and the barrier
//     ablation), runs with zero races — the compiler-inserted copies
//     and sync ops order every conflicting access pair.
//  2. Sensitivity (mutation adequacy): deleting/weakening any single
//     compiler-inserted sync op in the stencil program must make the
//     checker report a race. A mutant the checker misses would mean a
//     sync op the checker cannot justify.
//  3. Equivalence: the frontier checker's verdict and race list equal
//     the exhaustive all-pairs checker's (brute_force.h) on every run
//     above and on seeded synthetic logs, and the precondition its
//     frontier argument rests on holds on every application.
//  4. Growth: the pairs checked per access and the access log's bytes
//     per access stay flat as the machine grows, and the log points at
//     shared point sets instead of copying them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/circuit/circuit.h"
#include "apps/miniaero/miniaero.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "check/brute_force.h"
#include "exec/implicit_exec.h"
#include "support/rng.h"

namespace cr::exec {
namespace {

enum class AppKind { kStencil, kCircuit, kPennant, kMiniAero };

const char* app_name(AppKind kind) {
  switch (kind) {
    case AppKind::kStencil: return "stencil";
    case AppKind::kCircuit: return "circuit";
    case AppKind::kPennant: return "pennant";
    case AppKind::kMiniAero: return "miniaero";
  }
  return "?";
}

ir::Program build_app(rt::Runtime& rt, AppKind kind) {
  ir::Program p;
  const uint32_t nodes = rt.machine().nodes();
  switch (kind) {
    case AppKind::kStencil: {
      apps::stencil::Config cfg;
      cfg.nodes = nodes;
      cfg.tasks_per_node = 2;
      cfg.tile_x = 6;
      cfg.tile_y = 6;
      cfg.steps = 2;
      p = apps::stencil::build(rt, cfg).program;
      break;
    }
    case AppKind::kCircuit: {
      apps::circuit::Config cfg;
      cfg.nodes = nodes;
      cfg.pieces_per_node = 2;
      cfg.nodes_per_piece = 8;
      cfg.wires_per_piece = 16;
      cfg.steps = 2;
      p = apps::circuit::build(rt, cfg).program;
      break;
    }
    case AppKind::kPennant: {
      apps::pennant::Config cfg;
      cfg.nodes = nodes;
      cfg.pieces_per_node = 2;
      cfg.zones_x_per_piece = 4;
      cfg.zones_y = 4;
      cfg.steps = 2;
      p = apps::pennant::build(rt, cfg).program;
      break;
    }
    case AppKind::kMiniAero: {
      apps::miniaero::Config cfg;
      cfg.nodes = nodes;
      cfg.pieces_per_node = 2;
      cfg.cells_x_per_piece = 2;
      cfg.cells_y = 4;
      cfg.cells_z = 4;
      cfg.steps = 1;
      p = apps::miniaero::build(rt, cfg).program;
      break;
    }
  }
  return p;
}

// The engine keeps the checker's inputs; the runtime must outlive it.
struct CheckedRun {
  std::unique_ptr<rt::Runtime> rt;
  PreparedRun prepared;
  ExecutionResult res;
  uint32_t num_sync_ops = 0;
};

CheckedRun run_checked(AppKind kind, ExecMode mode, bool p2p,
                       ir::SyncId mutate = ir::kNoSyncId) {
  CostModel cost;
  CheckedRun out;
  out.rt = std::make_unique<rt::Runtime>(
      runtime_config(4, 2, cost, /*real_data=*/false));
  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = mode;
  cfg.pipeline.p2p_sync = p2p;
  cfg.check = true;
  cfg.check_mutate = mutate;
  out.prepared = prepare(*out.rt, build_app(*out.rt, kind), cfg);
  out.res = out.prepared.run();
  out.num_sync_ops = out.prepared.program->num_sync_ops;
  return out;
}

// The frontier checker and the exhaustive one agree on the verdict and
// on every race: same pair, same order, same text.
void expect_same_as_brute_force(const check::CheckResult& got,
                                const check::AccessLog& log,
                                const sim::EventGraph& graph,
                                const ir::Program& program,
                                const std::string& what) {
  const check::CheckResult want =
      check::testing::brute_force_check(log, graph, program);
  EXPECT_EQ(got.ok(), want.ok()) << what;
  EXPECT_EQ(got.stats.accesses, want.stats.accesses) << what;
  EXPECT_EQ(got.stats.hb_edges, want.stats.hb_edges) << what;
  EXPECT_EQ(got.stats.races, want.stats.races) << what;
  EXPECT_LE(got.stats.pairs_checked, want.stats.pairs_checked) << what;
  ASSERT_EQ(got.races.size(), want.races.size()) << what;
  for (size_t i = 0; i < got.races.size(); ++i) {
    EXPECT_EQ(got.races[i].first, want.races[i].first) << what << " race " << i;
    EXPECT_EQ(got.races[i].second, want.races[i].second)
        << what << " race " << i;
    EXPECT_EQ(got.races[i].text, want.races[i].text) << what << " race " << i;
  }
}

void expect_same_as_brute_force(const CheckedRun& run,
                                const std::string& what) {
  ASSERT_NE(run.res.check, nullptr) << what;
  const Engine& engine = *run.prepared.engine;
  expect_same_as_brute_force(*run.res.check, engine.access_log(),
                             engine.event_graph(), *run.prepared.program,
                             what);
}

// The frontier argument's precondition: every access's start anchors
// reach its done event, and done_uid 0 comes with no start anchors.
// Returns the first violation, or "" when it holds. Each done event is
// searched backwards, only through events that fired after its
// earliest start anchor.
std::string anchors_reach_done(const check::AccessLog& log,
                               const sim::EventGraph& graph) {
  std::map<uint64_t, std::vector<uint64_t>> preds;
  for (const auto& [from, to] : graph.edges()) preds[to].push_back(from);
  std::map<uint64_t, size_t> fired_at;
  for (size_t i = 0; i < graph.fire_order().size(); ++i) {
    fired_at[graph.fire_order()[i]] = i;
  }
  auto position = [&](uint64_t uid) {
    const auto it = fired_at.find(uid);
    return it == fired_at.end() ? size_t{0} : it->second;
  };
  std::map<uint64_t, std::set<uint64_t>> starts_of;  // done -> starts
  for (size_t i = 0; i < log.accesses.size(); ++i) {
    const check::Access& a = log.accesses[i];
    const std::span<const uint32_t> starts = log.starts(a);
    if (a.done_uid == 0) {
      if (!starts.empty()) {
        return "access " + std::to_string(i) + " has done 0 and starts";
      }
      continue;
    }
    starts_of[a.done_uid].insert(starts.begin(), starts.end());
  }
  for (const auto& [done, starts] : starts_of) {
    size_t floor = SIZE_MAX;
    for (uint64_t s : starts) floor = std::min(floor, position(s));
    std::set<uint64_t> seen{done};
    std::vector<uint64_t> stack{done};
    while (!stack.empty()) {
      const uint64_t u = stack.back();
      stack.pop_back();
      const auto it = preds.find(u);
      if (it == preds.end()) continue;
      for (uint64_t p : it->second) {
        if (position(p) < floor || !seen.insert(p).second) continue;
        stack.push_back(p);
      }
    }
    for (uint64_t s : starts) {
      if (seen.count(s) == 0) {
        return "start anchor " + std::to_string(s) +
               " does not reach done event " + std::to_string(done);
      }
    }
  }
  return "";
}

TEST(Checker, FourAppsZeroRacesAcrossModesAndSyncRegimes) {
  for (AppKind kind : {AppKind::kStencil, AppKind::kCircuit,
                       AppKind::kPennant, AppKind::kMiniAero}) {
    for (ExecMode mode : {ExecMode::kImplicit, ExecMode::kSpmd}) {
      for (bool p2p : {true, false}) {
        const CheckedRun run = run_checked(kind, mode, p2p);
        const std::string what =
            std::string(app_name(kind)) +
            (mode == ExecMode::kSpmd ? " spmd" : " implicit") +
            (p2p ? " p2p" : " barrier");
        ASSERT_NE(run.res.check, nullptr);
        EXPECT_GT(run.res.check->stats.pairs_checked, 0u)
            << what << " checked nothing";
        EXPECT_TRUE(run.res.check->ok())
            << what << ": " << run.res.check->to_text();
        expect_same_as_brute_force(run, what);
      }
    }
  }
}

TEST(Checker, AnchorsReachDoneOnEveryApp) {
  for (AppKind kind : {AppKind::kStencil, AppKind::kCircuit,
                       AppKind::kPennant, AppKind::kMiniAero}) {
    for (ExecMode mode : {ExecMode::kImplicit, ExecMode::kSpmd}) {
      const CheckedRun run = run_checked(kind, mode, /*p2p=*/true);
      const Engine& engine = *run.prepared.engine;
      ASSERT_FALSE(engine.access_log().accesses.empty());
      EXPECT_EQ(anchors_reach_done(engine.access_log(), engine.event_graph()),
                "")
          << app_name(kind)
          << (mode == ExecMode::kSpmd ? " spmd" : " implicit");
    }
  }
}

void mutation_sweep(bool p2p) {
  // The un-mutated run: zero races, and sync ops to mutate exist.
  const CheckedRun clean = run_checked(AppKind::kStencil, ExecMode::kSpmd,
                                       p2p);
  ASSERT_TRUE(clean.res.check->ok()) << clean.res.check->to_text();
  ASSERT_GT(clean.num_sync_ops, 0u);
  for (uint32_t id = 0; id < clean.num_sync_ops; ++id) {
    const CheckedRun mutant = run_checked(AppKind::kStencil,
                                          ExecMode::kSpmd, p2p, id);
    EXPECT_FALSE(mutant.res.check->ok())
        << "deleting sync op " << id << " of " << clean.num_sync_ops
        << (p2p ? " (p2p)" : " (barrier)")
        << " went undetected: every inserted sync op must be load-bearing";
    expect_same_as_brute_force(
        mutant, "mutant " + std::to_string(id) + (p2p ? " p2p" : " barrier"));
  }
}

TEST(Checker, StencilMutationSweepP2PAllDetected) {
  mutation_sweep(/*p2p=*/true);
}

TEST(Checker, StencilMutationSweepBarrierAllDetected) {
  mutation_sweep(/*p2p=*/false);
}

// Implicit stencil with the dependence tracker and the checker on,
// small tiles: the growth gates below compare 16 with 64 nodes.
// Deterministic: no count depends on timing.
struct StencilAudit {
  std::unique_ptr<rt::Runtime> rt;
  PreparedRun run;
  ExecutionResult res;
};

StencilAudit implicit_stencil_audit(uint32_t nodes) {
  CostModel cost;
  cost.track_dependences = true;
  StencilAudit out;
  out.rt = std::make_unique<rt::Runtime>(
      runtime_config(nodes, 2, cost, /*real_data=*/false));
  apps::stencil::Config cfg;
  cfg.nodes = nodes;
  cfg.tasks_per_node = 2;
  cfg.tile_x = 6;
  cfg.tile_y = 6;
  cfg.steps = 2;
  ir::Program p = apps::stencil::build(*out.rt, cfg).program;
  ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = ExecMode::kImplicit;
  ecfg.check = true;
  out.run = prepare(*out.rt, std::move(p), ecfg);
  out.res = out.run.run();
  EXPECT_TRUE(out.res.check->ok()) << out.res.check->to_text();
  return out;
}

// Host-side growth gate: the pairs the checker orders per access must
// stay flat as the machine grows (an all-pairs enumeration grows with
// the accesses per place).
TEST(Checker, PairsPerAccessStayFlat) {
  auto pairs_per_access = [](uint32_t nodes) {
    const ExecutionResult res = implicit_stencil_audit(nodes).res;
    return res.metrics.at("check.pairs_checked") /
           res.metrics.at("check.accesses");
  };
  const double at16 = pairs_per_access(16);
  const double at64 = pairs_per_access(64);
  EXPECT_GT(at16, 0.0);
  EXPECT_LE(at64, 1.25 * at16) << "16 nodes: " << at16
                               << " pairs/access, 64 nodes: " << at64;
}

// The access log holds references, not copies: every access's points
// are its region's set (tasks, fills), its copy pair's set (copies) or
// a log-owned partials set, and a record plus its share of the anchors
// costs the same number of bytes at 16 and at 64 nodes.
static_assert(std::is_trivially_copyable_v<check::Access>);
static_assert(sizeof(check::Access) <= 80);

TEST(Checker, AccessLogSharesPointSetsAndStaysFlat) {
  auto bytes_per_access = [](uint32_t nodes) {
    const StencilAudit audit = implicit_stencil_audit(nodes);
    const Engine& engine = *audit.run.engine;
    const check::AccessLog& log = engine.access_log();
    const rt::RegionForest& forest = audit.rt->forest();
    std::set<const support::IntervalSet*> regions, pairs, owned, used;
    for (rt::RegionId r = 0; r < forest.num_regions(); ++r) {
      regions.insert(&forest.region(r).ispace.points());
    }
    const std::vector<const support::IntervalSet*> pair_sets =
        engine.pair_point_sets();
    pairs.insert(pair_sets.begin(), pair_sets.end());
    for (const support::IntervalSet& s : log.owned) owned.insert(&s);
    size_t misplaced = 0;
    for (const check::Access& a : log.accesses) {
      const std::string what = a.what;
      const std::set<const support::IntervalSet*>& home =
          what.starts_with("copy-")      ? pairs
          : what.starts_with("partials") ? owned
          : what == "scalar-fold"        ? owned
                                         : regions;
      misplaced += home.count(a.points) == 0;
      used.insert(a.points);
    }
    EXPECT_EQ(misplaced, 0u) << nodes << " nodes";
    EXPECT_LE(used.size(),
              forest.num_regions() + pair_sets.size() + log.owned.size())
        << nodes << " nodes";
    EXPECT_GT(log.accesses.size(), 0u);
    return static_cast<double>(sizeof(check::Access)) +
           4.0 * static_cast<double>(log.anchors.size()) /
               static_cast<double>(log.accesses.size());
  };
  const double at16 = bytes_per_access(16);
  const double at64 = bytes_per_access(64);
  EXPECT_LE(at64, 1.25 * at16) << "16 nodes: " << at16
                               << " log bytes/access, 64 nodes: " << at64;
}

// --- Seeded synthetic logs ---------------------------------------------

// A random log over a few places and fields: partial point overlaps,
// multi-field accesses, mixed reduction operators, statements of
// several pieces, operations complete at time 0 (done_uid 0) and
// operations that wait on nothing. Each operation gets a start event,
// extra start anchors that feed it, and a done event its start events
// reach; most operations also wait on a few recent operations' done
// events (every third seed on all of them, the next now and then not
// on the latest, the next on most), so some pairs are ordered and some
// race. The log is shuffled (SPMD shards interleave their accesses),
// and the graph fires in a random topological order.
struct SyntheticRun {
  check::AccessLog log;
  sim::EventGraph graph;
};

// The field lists of the synthetic accesses, by bit mask over {0, 1, 2}.
const std::array<std::vector<rt::FieldId>, 8> kFieldSets = {
    std::vector<rt::FieldId>{}, {0}, {1}, {0, 1}, {2}, {0, 2}, {1, 2},
    {0, 1, 2}};

SyntheticRun synthetic_run(uint64_t seed) {
  support::Rng rng(seed * 7919 + 3);
  SyntheticRun out;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  uint32_t nodes = 0;
  auto node = [&] { return ++nodes; };
  std::vector<uint32_t> dones;  // done events of earlier operations
  const uint32_t statements = 24 + static_cast<uint32_t>(rng.next_below(24));
  // Seeds cycle through three waiting regimes: every recent operation
  // (race-free); all but, now and then, the latest (a few places race);
  // most.
  const uint64_t regime = seed % 3;
  for (uint32_t seq = 1; seq <= statements; ++seq) {
    const uint32_t pieces =
        seq == 1 ? 3 : 1 + static_cast<uint32_t>(rng.next_below(3));
    for (uint32_t piece = 0; piece < pieces; ++piece) {
      const uint64_t sub = piece * 3 + rng.next_below(2);
      check::AnchorSpan starts = out.log.open_span();
      uint64_t done = 0;
      // The first statement always has an operation complete at time 0
      // and one that waits on nothing.
      const uint64_t kind = seq == 1 && piece < 2 ? piece
                            : regime < 2      ? 2
                                              : rng.next_below(20);
      if (kind != 0) {  // kind 0: complete at time 0, no anchors
        const uint32_t start = node();
        done = node();
        edges.push_back({start, static_cast<uint32_t>(done)});
        if (kind != 1) {  // kind 1: waits on nothing
          out.log.add_anchor(starts, start);
          const uint32_t extra = static_cast<uint32_t>(rng.next_below(3));
          for (uint32_t k = 0; k < extra; ++k) {
            const uint32_t anchor = node();
            edges.push_back({anchor, start});
            out.log.add_anchor(starts, anchor);
          }
          for (size_t back = 1; back <= 4 && back <= dones.size(); ++back) {
            const double drop = regime == 0   ? 0.0
                                : regime == 2 ? 0.2
                                : back == 1   ? 0.15
                                              : 0.0;
            if (!rng.next_bool(drop)) {
              edges.push_back({dones[dones.size() - back], start});
            }
          }
        }
        dones.push_back(static_cast<uint32_t>(done));
      }
      const uint32_t accesses = 1 + static_cast<uint32_t>(rng.next_below(2));
      for (uint32_t k = 0; k < accesses; ++k) {
        check::Access a;
        a.place = rng.next_below(3);
        a.root = 0;
        size_t fields = 0;  // bit mask
        for (size_t f = 0; f < 3; ++f) {
          if (rng.next_bool(0.45)) fields |= size_t{1} << f;
        }
        if (fields == 0) fields = size_t{1} << rng.next_below(3);
        a.fields = &kFieldSets[fields];
        support::IntervalSet points;
        const uint32_t intervals = 1 + static_cast<uint32_t>(rng.next_below(3));
        for (uint32_t i = 0; i < intervals; ++i) {
          const uint64_t lo = rng.next_below(40);
          points.add(lo, lo + 1 + rng.next_below(12));
        }
        a.points = out.log.own(std::move(points));
        const uint64_t type = rng.next_below(10);
        a.type = type < 4   ? check::AccessType::kRead
                 : type < 7 ? check::AccessType::kWrite
                            : check::AccessType::kReduce;
        a.redop = static_cast<rt::ReduceOp>(rng.next_below(3));
        a.starts = starts;  // the operation's accesses share its anchors
        a.done_uid = static_cast<uint32_t>(done);
        a.seq = seq;
        a.sub = sub;
        a.shard = static_cast<uint32_t>(sub);
        a.what = "synthetic";
        out.log.accesses.push_back(a);
      }
    }
  }
  for (size_t i = out.log.accesses.size(); i > 1; --i) {
    std::swap(out.log.accesses[i - 1],
              out.log.accesses[rng.next_below(i)]);
  }

  // Random Kahn order as the fire order.
  std::vector<std::vector<uint32_t>> succ(nodes + 1);
  std::vector<uint32_t> indeg(nodes + 1, 0);
  for (const auto& [from, to] : edges) {
    succ[from].push_back(to);
    ++indeg[to];
    out.graph.edge(from, to);
  }
  std::vector<uint32_t> ready;
  for (uint32_t u = 1; u <= nodes; ++u) {
    if (indeg[u] == 0) ready.push_back(u);
  }
  while (!ready.empty()) {
    std::swap(ready[rng.next_below(ready.size())], ready.back());
    const uint32_t u = ready.back();
    ready.pop_back();
    out.graph.fired(u);
    for (uint32_t v : succ[u]) {
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  return out;
}

class CheckerOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckerOracle, SyntheticLogMatchesBruteForce) {
  const SyntheticRun run = synthetic_run(GetParam());
  ASSERT_EQ(anchors_reach_done(run.log, run.graph), "");
  const ir::Program program;
  const check::CheckResult got = check::check(run.log, run.graph, program);
  expect_same_as_brute_force(got, run.log, run.graph, program,
                             "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerOracle,
                         ::testing::Range<uint64_t>(0, 48));

// The synthetic logs exercise both verdicts: some seeds are race-free,
// and in some racy seeds a place races while another does not.
TEST(CheckerOracle, SyntheticLogsCoverBothVerdicts) {
  size_t clean = 0, mixed = 0;
  for (uint64_t seed = 0; seed < 48; ++seed) {
    const SyntheticRun run = synthetic_run(seed);
    const check::CheckResult r = check::check(run.log, run.graph,
                                              ir::Program{});
    std::set<uint64_t> places, racy;
    for (const check::Access& a : run.log.accesses) places.insert(a.place);
    for (const check::Race& race : r.races) {
      racy.insert(run.log.accesses[race.first].place);
    }
    clean += r.ok();
    mixed += !r.ok() && racy.size() < places.size();
  }
  EXPECT_GT(clean, 0u);
  EXPECT_GT(mixed, 0u);
}

}  // namespace
}  // namespace cr::exec
