#include "rt/partition.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "support/rng.h"

namespace cr::rt {
namespace {

std::shared_ptr<FieldSpace> fs() {
  auto f = std::make_shared<FieldSpace>();
  f->add_field("v");
  return f;
}

class PartitionLaws : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionLaws, EqualPartitionIsDisjointAndComplete) {
  const uint64_t colors = GetParam();
  RegionForest forest;
  RegionId r = forest.create_region(IndexSpace::dense(103), fs());
  PartitionId p = partition_equal(forest, r, colors);
  const PartitionNode& pn = forest.partition(p);
  EXPECT_TRUE(pn.disjoint);
  EXPECT_TRUE(pn.complete);
  EXPECT_EQ(pn.subregions.size(), colors);

  // Union covers the parent; pieces are balanced within 1.
  support::IntervalSet all;
  uint64_t min_size = UINT64_MAX, max_size = 0;
  for (RegionId sub : pn.subregions) {
    const auto& pts = forest.region(sub).ispace.points();
    EXPECT_TRUE(all.disjoint(pts));
    all = all.set_union(pts);
    min_size = std::min(min_size, pts.size());
    max_size = std::max(max_size, pts.size());
  }
  EXPECT_EQ(all, forest.region(r).ispace.points());
  EXPECT_LE(max_size - min_size, 1u);
}

INSTANTIATE_TEST_SUITE_P(Colors, PartitionLaws,
                         ::testing::Values(1, 2, 3, 7, 16, 103, 200));

TEST(Partition, EqualOnUnstructuredSpace) {
  RegionForest forest;
  support::Rng rng(3);
  std::vector<uint64_t> pts;
  for (int i = 0; i < 500; ++i) pts.push_back(rng.next_below(10000));
  auto is = IndexSpace::unstructured(support::IntervalSet::from_points(pts));
  const uint64_t n = is.size();
  RegionId r = forest.create_region(std::move(is), fs());
  PartitionId p = partition_equal(forest, r, 7);
  uint64_t total = 0;
  for (RegionId sub : forest.partition(p).subregions) {
    total += forest.region(sub).ispace.size();
  }
  EXPECT_EQ(total, n);
}

TEST(Partition, GridTilesAreDisjointCompleteAndShaped) {
  RegionForest forest;
  RegionId r =
      forest.create_region(IndexSpace::grid(GridExtents::d2(10, 12)), fs());
  PartitionId p = partition_grid(forest, r, {2, 3, 1});
  const PartitionNode& pn = forest.partition(p);
  EXPECT_TRUE(pn.disjoint && pn.complete);
  ASSERT_EQ(pn.subregions.size(), 6u);
  support::IntervalSet all;
  for (RegionId sub : pn.subregions) {
    all = all.set_union(forest.region(sub).ispace.points());
    EXPECT_EQ(forest.region(sub).ispace.size(), 20u);  // 5x4 tiles
  }
  EXPECT_EQ(all.size(), 120u);
}

TEST(Partition, ByColorRespectsColoring) {
  RegionForest forest;
  RegionId r = forest.create_region(IndexSpace::dense(20), fs());
  PartitionId p = partition_by_color(forest, r, 2, [](uint64_t id) {
    return ColorRun{id % 2, id + 1};
  });
  const PartitionNode& pn = forest.partition(p);
  EXPECT_TRUE(pn.disjoint && pn.complete);
  EXPECT_EQ(forest.region(pn.subregions[0]).ispace.size(), 10u);
  EXPECT_TRUE(forest.region(pn.subregions[1]).ispace.contains(7));
}

TEST(Partition, ByColorWithHolesIsIncomplete) {
  RegionForest forest;
  RegionId r = forest.create_region(IndexSpace::dense(10), fs());
  PartitionId p = partition_by_color(forest, r, 1, [](uint64_t id) {
    return ColorRun{id < 5 ? 0 : kNoColor, id + 1};
  });
  EXPECT_FALSE(forest.partition(p).complete);
  EXPECT_EQ(forest.region(forest.partition(p).subregions[0]).ispace.size(),
            5u);

  // A kNoColor run in the middle leaves a hole of its whole length.
  RegionId r2 = forest.create_region(IndexSpace::dense(100), fs());
  PartitionId q = partition_by_color(forest, r2, 2, [](uint64_t id) {
    if (id < 30) return ColorRun{0, 30};
    if (id < 50) return ColorRun{kNoColor, 50};
    return ColorRun{1, 100};
  });
  const PartitionNode& qn = forest.partition(q);
  EXPECT_TRUE(qn.disjoint);
  EXPECT_FALSE(qn.complete);
  EXPECT_EQ(forest.region(qn.subregions[0]).ispace.points(),
            support::IntervalSet::range(0, 30));
  EXPECT_EQ(forest.region(qn.subregions[1]).ispace.points(),
            support::IntervalSet::range(50, 100));
}

// A run may cross the gaps between the region's intervals: the operator
// clips it to each interval and asks again at the next interval's start.
TEST(Partition, ByColorClipsRunsToParentIntervals) {
  RegionForest forest;
  RegionId root = forest.create_region(IndexSpace::dense(40), fs());
  // Color 0 of `split` is [0, 10) u [20, 30): two intervals.
  PartitionId split = partition_by_color(forest, root, 2, [](uint64_t id) {
    return ColorRun{id / 10 % 2, (id / 10 + 1) * 10};
  });
  RegionId holes = forest.subregion(split, 0);
  ASSERT_EQ(forest.region(holes).ispace.points().interval_count(), 2u);

  std::vector<uint64_t> asked;
  PartitionId p = partition_by_color(forest, holes, 2, [&](uint64_t id) {
    asked.push_back(id);
    return id < 25 ? ColorRun{0, 25} : ColorRun{1, 40};
  });
  const PartitionNode& pn = forest.partition(p);
  EXPECT_TRUE(pn.disjoint && pn.complete);
  EXPECT_EQ(forest.region(pn.subregions[0]).ispace.points(),
            (support::IntervalSet{{0, 10}, {20, 25}}));
  EXPECT_EQ(forest.region(pn.subregions[1]).ispace.points(),
            (support::IntervalSet{{25, 30}}));
#ifdef NDEBUG
  // One call per clipped run; debug builds also ask every id of a run.
  EXPECT_EQ(asked, (std::vector<uint64_t>{0, 20, 25}));
#endif
}

// The O(runs) gate: 10^7 points in 4 runs over a parent of 3 intervals
// cost at most runs + intervals callbacks that start a run. Debug builds
// add one verifying call per id inside a run.
TEST(Partition, ByColorCostsRunsNotPoints) {
  constexpr uint64_t kPoints = 10'000'000;
  RegionForest forest;
  RegionId root = forest.create_region(IndexSpace::dense(kPoints), fs());
  // Color 0 of `split` is three intervals of 2*10^6 ids.
  const uint64_t band = kPoints / 5;
  PartitionId split = partition_by_color(forest, root, 2, [band](uint64_t id) {
    return ColorRun{id / band % 2, (id / band + 1) * band};
  });
  RegionId parent = forest.subregion(split, 0);
  const size_t intervals =
      forest.region(parent).ispace.points().interval_count();
  ASSERT_EQ(intervals, 3u);

  const uint64_t run = kPoints / 4;
  uint64_t calls = 0, starts = 0, lo = 0, hi = 0;
  PartitionId p = partition_by_color(forest, parent, 4, [&](uint64_t id) {
    ++calls;
    const ColorRun out{id / run, (id / run + 1) * run};
    if (id < lo || id >= hi) {
      ++starts;
      lo = id;
      hi = out.end;
    }
    return out;
  });
  EXPECT_LE(starts, 4 + intervals);
#ifdef NDEBUG
  EXPECT_EQ(calls, starts);
#endif
  uint64_t total = 0;
  for (RegionId sub : forest.partition(p).subregions) {
    total += forest.region(sub).ispace.size();
  }
  EXPECT_EQ(total, 3 * band);
}

TEST(PartitionDeath, ByColorRejectsEmptyRun) {
  RegionForest forest;
  RegionId r = forest.create_region(IndexSpace::dense(10), fs());
  EXPECT_DEATH(partition_by_color(
                   forest, r, 2,
                   [](uint64_t id) { return ColorRun{0, id < 4 ? 4 : id}; },
                   "stuck"),
               "partition_by_color 'stuck': color_run\\(4\\) returned the "
               "run \\[4, 4\\), which is empty");
}

TEST(PartitionDeath, ByColorRejectsColorOutOfRange) {
  RegionForest forest;
  RegionId r = forest.create_region(IndexSpace::dense(10), fs());
  EXPECT_DEATH(partition_by_color(forest, r, 2,
                                  [](uint64_t id) {
                                    return ColorRun{2, id + 1};
                                  }),
               "color out of range");
}

TEST(PartitionDeath, ByColorRunThatLiesCaughtInDebug) {
#ifndef NDEBUG
  RegionForest forest;
  RegionId r = forest.create_region(IndexSpace::dense(100), fs());
  // Claims [0, 100) has one color, but ids from 50 on have another.
  EXPECT_DEATH(partition_by_color(
                   forest, r, 2,
                   [](uint64_t id) { return ColorRun{id < 50 ? 0u : 1u, 100}; },
                   "liar"),
               "partition_by_color 'liar'.*holds an id of another color");
#else
  GTEST_SKIP() << "debug-only check";
#endif
}

TEST(Partition, ImageMatchesDefinition) {
  // Paper §2.1: h(b) ∈ QB[i] iff b ∈ PB[i].
  RegionForest forest;
  RegionId a = forest.create_region(IndexSpace::dense(12), fs(), "A");
  RegionId b = forest.create_region(IndexSpace::dense(12), fs(), "B");
  PartitionId pa = partition_equal(forest, a, 3);
  auto h = [](uint64_t x) { return (x * 5 + 3) % 12; };
  PartitionId qb = partition_image(
      forest, b, pa, [&](uint64_t x, std::vector<uint64_t>& out) {
        out.push_back(h(x));
      });
  EXPECT_FALSE(forest.partition(qb).disjoint);  // assumed aliased
  for (uint64_t i = 0; i < 3; ++i) {
    const auto& src = forest.region(forest.subregion(pa, i)).ispace;
    const auto& img = forest.region(forest.subregion(qb, i)).ispace;
    src.points().for_each_point(
        [&](uint64_t x) { EXPECT_TRUE(img.contains(h(x))); });
    EXPECT_EQ(img.size(), src.size());  // h is injective here
  }
}

TEST(Partition, ImageClipsToWindowRegion) {
  RegionForest forest;
  RegionId a = forest.create_region(IndexSpace::dense(10), fs());
  RegionId b = forest.create_region(IndexSpace::dense(5), fs());
  PartitionId pa = partition_equal(forest, a, 2);
  PartitionId qb = partition_image(
      forest, b, pa, [](uint64_t x, std::vector<uint64_t>& out) {
        out.push_back(x);  // identity; half the targets fall outside B
      });
  EXPECT_EQ(forest.region(forest.subregion(qb, 0)).ispace.size(), 5u);
  EXPECT_EQ(forest.region(forest.subregion(qb, 1)).ispace.size(), 0u);
}

TEST(Partition, ComposeRemapsColors) {
  RegionForest forest;
  RegionId a = forest.create_region(IndexSpace::dense(12), fs());
  PartitionId pa = partition_equal(forest, a, 4);
  // q[i] = pa[(i+1) mod 4]
  PartitionId q = partition_compose(forest, pa, 4, [](uint64_t i) {
    return (i + 1) % 4;
  });
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(forest.region(forest.subregion(q, i)).ispace.points(),
              forest.region(forest.subregion(pa, (i + 1) % 4))
                  .ispace.points());
  }
  EXPECT_FALSE(forest.partition(q).disjoint);
}

TEST(PartitionDeath, DisjointClaimVerifiedInDebug) {
#ifndef NDEBUG
  RegionForest forest;
  RegionId a = forest.create_region(IndexSpace::dense(10), fs());
  std::vector<IndexSpace> overlapping;
  overlapping.push_back(forest.region(a).ispace.subspace(
      support::IntervalSet::range(0, 6)));
  overlapping.push_back(forest.region(a).ispace.subspace(
      support::IntervalSet::range(4, 10)));
  EXPECT_DEATH(forest.create_partition(a, std::move(overlapping),
                                       /*disjoint=*/true, false),
               "claimed disjoint");
#else
  GTEST_SKIP() << "debug-only check";
#endif
}

}  // namespace
}  // namespace cr::rt
