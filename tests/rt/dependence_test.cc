#include "rt/dependence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "rt/partition.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace cr::rt {
namespace {

struct Fixture {
  sim::Simulator sim;
  RegionForest forest;
  std::shared_ptr<FieldSpace> fs = std::make_shared<FieldSpace>();
  FieldId v;
  RegionId r;
  PartitionId p;
  Fixture() {
    v = fs->add_field("v");
    r = forest.create_region(IndexSpace::dense(100), fs);
    p = partition_equal(forest, r, 4);
  }
  Requirement req(RegionId region, Privilege priv,
                  ReduceOp op = ReduceOp::kSum) {
    return Requirement{region, priv, op, {v}};
  }
};

TEST(Privileges, ConflictMatrix) {
  using P = Privilege;
  auto c = [](P a, P b) {
    return privileges_conflict(a, ReduceOp::kSum, b, ReduceOp::kSum);
  };
  EXPECT_FALSE(c(P::kReadOnly, P::kReadOnly));
  EXPECT_TRUE(c(P::kReadOnly, P::kReadWrite));
  EXPECT_TRUE(c(P::kReadWrite, P::kReadWrite));
  EXPECT_TRUE(c(P::kWriteDiscard, P::kReadOnly));
  EXPECT_FALSE(c(P::kReduce, P::kReduce));  // same op commutes
  EXPECT_TRUE(privileges_conflict(P::kReduce, ReduceOp::kSum, P::kReduce,
                                  ReduceOp::kMin));
  EXPECT_TRUE(c(P::kReduce, P::kReadOnly));
}

TEST(Dependence, ReadersDontConflict) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  auto d1 = deps.record(1, f.req(f.r, Privilege::kReadOnly), e1);
  auto d2 = deps.record(2, f.req(f.r, Privilege::kReadOnly), e2);
  EXPECT_TRUE(d1.empty());
  EXPECT_TRUE(d2.empty());
}

TEST(Dependence, WriteAfterReadOrders) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  deps.record(1, f.req(f.r, Privilege::kReadOnly), e1);
  auto d = deps.record(2, f.req(f.r, Privilege::kReadWrite), e2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], e1);
}

TEST(Dependence, DisjointSubregionsRunInParallel) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  deps.record(1, f.req(f.forest.subregion(f.p, 0), Privilege::kReadWrite),
              e1);
  auto d = deps.record(
      2, f.req(f.forest.subregion(f.p, 1), Privilege::kReadWrite),
      e2);
  EXPECT_TRUE(d.empty());
}

TEST(Dependence, OverlappingWritesSerialize) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  deps.record(1, f.req(f.forest.subregion(f.p, 0), Privilege::kReadWrite),
              e1);
  auto d = deps.record(2, f.req(f.r, Privilege::kReadWrite), e2);
  ASSERT_EQ(d.size(), 1u);  // parent overlaps the subregion
}

TEST(Dependence, SameOpReductionsCommute) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  const sim::Event e3 = f.sim.make_event();
  deps.record(1, f.req(f.r, Privilege::kReduce, ReduceOp::kSum), e1);
  auto d2 =
      deps.record(2, f.req(f.r, Privilege::kReduce, ReduceOp::kSum),
                  e2);
  EXPECT_TRUE(d2.empty());
  // A different operator must serialize against both.
  auto d3 =
      deps.record(3, f.req(f.r, Privilege::kReduce, ReduceOp::kMin),
                  e3);
  EXPECT_EQ(d3.size(), 2u);
}

TEST(Dependence, CoveringWriterPrunesEpoch) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  const sim::Event e3 = f.sim.make_event();
  const sim::Event e4 = f.sim.make_event();
  // Four readers of subregions, then a full write, then another write:
  // the second write should only depend on the first (pruned epoch).
  deps.record(1, f.req(f.forest.subregion(f.p, 0), Privilege::kReadOnly),
              e1);
  deps.record(2, f.req(f.forest.subregion(f.p, 1), Privilege::kReadOnly),
              e2);
  auto d3 = deps.record(3, f.req(f.r, Privilege::kReadWrite), e3);
  EXPECT_EQ(d3.size(), 2u);
  auto d4 = deps.record(4, f.req(f.r, Privilege::kReadWrite), e4);
  ASSERT_EQ(d4.size(), 1u);
  EXPECT_EQ(d4[0], e3);
}

TEST(Dependence, ReaderDoesNotPruneWriter) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  const sim::Event e3 = f.sim.make_event();
  deps.record(1, f.req(f.r, Privilege::kReadWrite), e1);
  deps.record(2, f.req(f.r, Privilege::kReadOnly), e2);
  // A second reader must still see the writer (readers don't retire it).
  auto d = deps.record(3, f.req(f.r, Privilege::kReadOnly), e3);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], e1);
}

TEST(Dependence, FieldsAreIndependent) {
  Fixture f;
  const FieldId w = f.fs->add_field("w");
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  deps.record(1, Requirement{f.r, Privilege::kReadWrite, ReduceOp::kSum,
                             {f.v}},
              e1);
  auto d = deps.record(
      2, Requirement{f.r, Privilege::kReadWrite, ReduceOp::kSum, {w}},
      e2);
  EXPECT_TRUE(d.empty());
}

TEST(Dependence, StatsCountPairs) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const sim::Event e1 = f.sim.make_event();
  const sim::Event e2 = f.sim.make_event();
  deps.record(1, f.req(f.r, Privilege::kReadWrite), e1);
  deps.record(2, f.req(f.r, Privilege::kReadWrite), e2);
  EXPECT_EQ(deps.pairs_tested(), 1u);
  EXPECT_EQ(deps.pairs_scanned(), 1u);
  EXPECT_EQ(deps.dependences_found(), 1u);
}

// Overlap lists are geometry caches sized at the first record: the
// passes add every partition before the engine records an operation, so
// a forest that grows after it stops the tracker instead of leaving a
// list that misses the new regions.
TEST(Dependence, ForestGrowthAfterFirstRecordDies) {
  Fixture f;
  DependenceTracker deps(f.forest);
  const RegionId r0 = f.forest.subregion(f.p, 0);  // [0, 25)
  deps.record(1, f.req(r0, Privilege::kReadWrite), f.sim.make_event());
  const PartitionId halves = partition_equal(f.forest, f.r, 2);
  const RegionId h0 = f.forest.subregion(halves, 0);  // [0, 50)
  EXPECT_DEATH(
      deps.record(2, f.req(h0, Privilege::kReadOnly), f.sim.make_event()),
      "region forest grew after the first dependence record");
}

// Test-local oracle for the tracker: an exhaustive scan of every live
// user of each (root, field), written from the analysis's definition
// rather than from the tracker's code. Two uses conflict when their
// privileges do and their index spaces share a point; a writer whose
// points cover a conflicting prior user retires it (epoch pruning).
class ExhaustiveScan {
 public:
  explicit ExhaustiveScan(const RegionForest& forest) : forest_(&forest) {}

  std::vector<sim::Event> record(uint64_t op_id, const Requirement& req,
                                 sim::Event completion) {
    std::vector<sim::Event> preconditions;
    const RegionNode& node = forest_->region(req.region);
    const support::IntervalSet& pts = node.ispace.points();
    const bool covers = req.privilege == Privilege::kReadWrite ||
                        req.privilege == Privilege::kWriteDiscard;
    for (FieldId f : req.fields) {
      std::vector<User>& users = users_[{node.root, f}];
      for (User& u : users) {
        if (!u.alive || u.op_id == op_id) continue;
        ++pairs_scanned_;
        const support::IntervalSet& upts =
            forest_->region(u.region).ispace.points();
        if (!privileges_conflict(u.privilege, u.redop, req.privilege,
                                 req.redop) ||
            !upts.overlaps(pts)) {
          continue;
        }
        ++dependences_found_;
        if (std::find(preconditions.begin(), preconditions.end(),
                      u.completion) == preconditions.end()) {
          preconditions.push_back(u.completion);
        }
        if (covers && pts.contains_all(upts)) u.alive = false;
      }
      users.push_back(
          {op_id, req.privilege, req.redop, req.region, completion, true});
    }
    return preconditions;
  }

  uint64_t pairs_scanned() const { return pairs_scanned_; }
  uint64_t dependences_found() const { return dependences_found_; }

 private:
  struct User {
    uint64_t op_id;
    Privilege privilege;
    ReduceOp redop;
    RegionId region;
    sim::Event completion;
    bool alive;
  };
  const RegionForest* forest_;
  std::map<std::pair<RegionId, FieldId>, std::vector<User>> users_;
  uint64_t pairs_scanned_ = 0;
  uint64_t dependences_found_ = 0;
};

// Grows a random subtree under `root`: disjoint equal splits, aliased
// image partitions (shifted, so some colors clip to empty subregions at
// the edge) and colorings that leave colors empty. Every new subregion
// is appended to `regions` and may be split again.
void grow_random(RegionForest& forest, support::Rng& rng, RegionId root,
                 int steps, std::vector<RegionId>& regions) {
  std::vector<RegionId> local{root};
  for (int step = 0; step < steps; ++step) {
    const RegionId target = local[rng.next_below(local.size())];
    if (forest.region(target).ispace.size() < 8) continue;
    PartitionId p;
    switch (rng.next_below(3)) {
      case 0:
        p = partition_equal(forest, target, 2 + rng.next_below(6));
        break;
      case 1: {
        const uint64_t shift = 1 + rng.next_below(16);
        const PartitionId base = partition_equal(forest, target, 4);
        p = partition_image(
            forest, target, base,
            [shift](uint64_t x, std::vector<uint64_t>& out) {
              out.push_back(x + shift);
            });
        break;
      }
      default: {
        // Colors 0..3 of 6: colors 4 and 5 are empty subregions.
        const uint64_t lo = forest.region(target).ispace.points().bounds().lo;
        p = partition_by_color(forest, target, 6, [lo](uint64_t x) {
          return ColorRun{(x - lo) / 3 % 4, x + 1};
        });
        break;
      }
    }
    for (RegionId sub : forest.partition(p).subregions) {
      local.push_back(sub);
      regions.push_back(sub);
    }
  }
}

// Property: the tracker must return the identical precondition vectors
// (same events, same order) and charge the identical pairs_scanned as
// the exhaustive scan, on randomized launch sequences over a randomized
// forest — while testing no more pairs than the scan would. The forest
// has a 1-D tree and a 2-D grid tree, each at least three partitions
// deep, with empty subregions; requirements also name the roots and
// cover one or two fields. As after the passes, the whole forest exists
// before the first record.
class DependenceIndexEquivalence : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DependenceIndexEquivalence, IndexedMatchesLinearScan) {
  support::Rng rng(GetParam() * 131 + 11);
  sim::Simulator sim;
  RegionForest forest;
  auto fields = std::make_shared<FieldSpace>();
  const FieldId fv = fields->add_field("v");
  const FieldId fw = fields->add_field("w");

  // 1-D tree: a guaranteed three-deep chain, then random growth.
  const RegionId line = forest.create_region(IndexSpace::dense(256), fields);
  std::vector<RegionId> regions{line};
  RegionId chain = line;
  for (int depth = 0; depth < 3; ++depth) {
    const PartitionId p = partition_equal(forest, chain, 2 + depth);
    for (RegionId sub : forest.partition(p).subregions) regions.push_back(sub);
    chain = forest.subregion(p, rng.next_below(2));
  }
  grow_random(forest, rng, line, 4, regions);

  // 2-D tree: 16x16 grid tiled 4x2 (row-major, so each tile is a run of
  // short intervals), tiles split further.
  const RegionId grid =
      forest.create_region(IndexSpace::grid(GridExtents::d2(16, 16)), fields);
  regions.push_back(grid);
  const PartitionId tiles = partition_grid(forest, grid, {4, 2, 1});
  for (RegionId sub : forest.partition(tiles).subregions) {
    regions.push_back(sub);
  }
  const RegionId tile = forest.subregion(tiles, rng.next_below(8));
  grow_random(forest, rng, tile, 4, regions);
  grow_random(forest, rng, regions[rng.next_below(regions.size())], 2,
              regions);
  grow_random(forest, rng, line, 1, regions);

  ExhaustiveScan scan(forest);
  DependenceTracker indexed(forest);

  const Privilege privs[] = {Privilege::kReadOnly, Privilege::kReadWrite,
                             Privilege::kWriteDiscard, Privilege::kReduce};
  std::vector<sim::Event> events;
  events.reserve(800);
  for (uint64_t op = 1; op <= 400; ++op) {
    // Some operations (like copies) record several requirements.
    const int nreqs = 1 + static_cast<int>(rng.next_below(2));
    for (int k = 0; k < nreqs; ++k) {
      Requirement req;
      req.region = regions[rng.next_below(regions.size())];
      req.privilege = privs[rng.next_below(4)];
      req.redop = rng.next_bool() ? ReduceOp::kSum : ReduceOp::kMin;
      req.fields = rng.next_bool(0.8) ? std::vector<FieldId>{fv}
                                      : std::vector<FieldId>{fv, fw};
      events.push_back(sim.make_event());
      const sim::Event done = events.back();
      auto expected = scan.record(op, req, done);
      auto got = indexed.record(op, req, done);
      ASSERT_EQ(got, expected) << "op " << op << " (seed " << GetParam()
                               << ")";
    }
  }
  EXPECT_EQ(indexed.dependences_found(), scan.dependences_found());
  EXPECT_EQ(indexed.pairs_scanned(), scan.pairs_scanned());
  EXPECT_LE(indexed.pairs_tested(), indexed.pairs_scanned());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependenceIndexEquivalence,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace cr::rt
