#include "rt/intersect.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "rt/partition.h"
#include "support/rng.h"

namespace cr::rt {
namespace {

std::shared_ptr<FieldSpace> fs() {
  auto f = std::make_shared<FieldSpace>();
  f->add_field("v");
  return f;
}

TEST(IntervalTree, FindsOverlaps) {
  IntervalTree tree({{{0, 10}, 1}, {{5, 15}, 2}, {{20, 30}, 3}});
  std::vector<uint64_t> out;
  tree.query({7, 9}, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2}));
}

TEST(IntervalTree, EmptyQueryAndEmptyTree) {
  IntervalTree empty({});
  std::vector<uint64_t> out;
  empty.query({0, 100}, out);
  EXPECT_TRUE(out.empty());
  IntervalTree tree({{{0, 10}, 1}});
  tree.query({10, 10}, out);  // empty interval
  EXPECT_TRUE(out.empty());
}

TEST(IntervalTree, TouchingEndpointsDoNotOverlap) {
  IntervalTree tree({{{0, 10}, 1}});
  std::vector<uint64_t> out;
  tree.query({10, 20}, out);
  EXPECT_TRUE(out.empty());
}

class IntervalTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalTreeProperty, MatchesBruteForce) {
  support::Rng rng(GetParam());
  std::vector<IntervalTree::Entry> entries;
  for (uint64_t i = 0; i < 80; ++i) {
    const uint64_t lo = rng.next_below(1000);
    entries.push_back({{lo, lo + 1 + rng.next_below(60)}, i});
  }
  IntervalTree tree(entries);
  for (int q = 0; q < 30; ++q) {
    const uint64_t lo = rng.next_below(1000);
    const support::Interval qi{lo, lo + 1 + rng.next_below(100)};
    std::vector<uint64_t> got;
    tree.query(qi, got);
    std::set<uint64_t> want;
    for (const auto& e : entries) {
      if (e.iv.lo < qi.hi && e.iv.hi > qi.lo) want.insert(e.payload);
    }
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalTreeProperty,
                         ::testing::Range<uint64_t>(0, 20));

TEST(Bvh, FindsOverlappingRects) {
  Bvh bvh({{Rect::d2(0, 0, 4, 4), 1},
           {Rect::d2(3, 3, 8, 8), 2},
           {Rect::d2(10, 10, 12, 12), 3}});
  std::vector<uint64_t> out;
  bvh.query(Rect::d2(3, 3, 4, 4), out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2}));
}

class BvhProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BvhProperty, MatchesBruteForce) {
  support::Rng rng(GetParam());
  std::vector<Bvh::Entry> entries;
  for (uint64_t i = 0; i < 100; ++i) {
    const int64_t x = rng.next_in(0, 90), y = rng.next_in(0, 90);
    entries.push_back(
        {Rect::d2(x, y, x + 1 + rng.next_in(0, 15), y + 1 + rng.next_in(0, 15)),
         i});
  }
  Bvh bvh(entries);
  for (int q = 0; q < 30; ++q) {
    const int64_t x = rng.next_in(0, 90), y = rng.next_in(0, 90);
    const Rect qr = Rect::d2(x, y, x + 1 + rng.next_in(0, 25),
                             y + 1 + rng.next_in(0, 25));
    std::vector<uint64_t> got;
    bvh.query(qr, got);
    std::set<uint64_t> want;
    for (const auto& e : entries) {
      if (e.box.overlaps(qr)) want.insert(e.payload);
    }
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BvhProperty,
                         ::testing::Range<uint64_t>(0, 20));

// ---- shallow/complete intersections on partitions ----

std::set<std::pair<uint64_t, uint64_t>> brute_force_pairs(
    const RegionForest& forest, PartitionId p, PartitionId q) {
  std::set<std::pair<uint64_t, uint64_t>> out;
  const auto& ps = forest.partition(p).subregions;
  const auto& qs = forest.partition(q).subregions;
  for (uint64_t i = 0; i < ps.size(); ++i) {
    for (uint64_t j = 0; j < qs.size(); ++j) {
      if (forest.region(ps[i]).ispace.points().overlaps(
              forest.region(qs[j]).ispace.points())) {
        out.insert({i, j});
      }
    }
  }
  return out;
}

std::set<std::pair<uint64_t, uint64_t>> to_set(
    const std::vector<IntersectionPair>& pairs) {
  std::set<std::pair<uint64_t, uint64_t>> out;
  for (const auto& p : pairs) out.insert({p.src_color, p.dst_color});
  return out;
}

TEST(ShallowIntersection, HaloPatternIsLinearNotQuadratic) {
  // 1D halo: each QB[i] overlaps PB[i-1], PB[i], PB[i+1] — so the number
  // of pairs is O(N), the property §3.3 exploits.
  RegionForest forest;
  const uint64_t n = 32;
  RegionId b = forest.create_region(IndexSpace::dense(n * 10), fs());
  PartitionId pb = partition_equal(forest, b, n);
  PartitionId qb = partition_image(
      forest, b, pb, [&](uint64_t x, std::vector<uint64_t>& out) {
        if (x >= 2) out.push_back(x - 2);
        out.push_back(x);
        if (x + 2 < n * 10) out.push_back(x + 2);
      });
  auto pairs = shallow_intersections(forest, pb, qb);
  EXPECT_EQ(to_set(pairs), brute_force_pairs(forest, pb, qb));
  EXPECT_LT(pairs.size(), 3 * n + 1);  // linear, not n^2
  EXPECT_GE(pairs.size(), n);
}

TEST(ShallowIntersection, Structured2DTiles) {
  RegionForest forest;
  RegionId g =
      forest.create_region(IndexSpace::grid(GridExtents::d2(24, 24)), fs());
  PartitionId tiles = partition_grid(forest, g, {4, 4, 1});
  // Halo image: each tile expands by 1 in each direction.
  PartitionId halo = partition_image(
      forest, g, tiles, [&](uint64_t id, std::vector<uint64_t>& out) {
        const auto& e = forest.region(g).ispace.extents();
        int64_t x, y, z;
        e.delinearize(id, x, y, z);
        for (int64_t dx = -1; dx <= 1; ++dx) {
          for (int64_t dy = -1; dy <= 1; ++dy) {
            const int64_t nx = x + dx, ny = y + dy;
            if (nx >= 0 && nx < 24 && ny >= 0 && ny < 24) {
              out.push_back(e.linearize(nx, ny));
            }
          }
        }
      });
  auto pairs = shallow_intersections(forest, tiles, halo);
  EXPECT_EQ(to_set(pairs), brute_force_pairs(forest, tiles, halo));
  // Each tile intersects at most its 3x3 neighborhood of halos.
  EXPECT_LE(pairs.size(), 16u * 9u);
}

class ShallowProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShallowProperty, MatchesBruteForceOnRandomImages) {
  support::Rng rng(GetParam());
  RegionForest forest;
  const uint64_t size = 200 + rng.next_below(300);
  RegionId b = forest.create_region(IndexSpace::dense(size), fs());
  PartitionId pb = partition_equal(forest, b, 4 + rng.next_below(8));
  const uint64_t stride = 1 + rng.next_below(size);
  PartitionId qb = partition_image(
      forest, b, pb, [&](uint64_t x, std::vector<uint64_t>& out) {
        out.push_back((x * stride + 7) % size);  // scrambled access
      });
  EXPECT_EQ(to_set(shallow_intersections(forest, pb, qb)),
            brute_force_pairs(forest, pb, qb));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShallowProperty,
                         ::testing::Range<uint64_t>(0, 25));

TEST(CompleteIntersection, ExactElements) {
  RegionForest forest;
  RegionId b = forest.create_region(IndexSpace::dense(100), fs());
  PartitionId pb = partition_equal(forest, b, 10);
  PartitionId qb = partition_image(
      forest, b, pb, [](uint64_t x, std::vector<uint64_t>& out) {
        out.push_back(x + 5 < 100 ? x + 5 : x);
      });
  // PB[1] = [10,20); QB[0] = [5,15): intersection [10,15).
  auto inter = complete_intersection(forest, forest.subregion(pb, 1),
                                     forest.subregion(qb, 0));
  EXPECT_EQ(inter, support::IntervalSet::range(10, 15));
}

}  // namespace
}  // namespace cr::rt
