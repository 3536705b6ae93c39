#include "rt/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

std::vector<uint64_t> query(const IntervalIndex& index, support::Interval q) {
  std::vector<uint64_t> out;
  index.query(q, [&](uint64_t c) { out.push_back(c); });
  return out;
}

TEST(IntervalIndex, FindsOverlaps) {
  IntervalIndex index({{{20, 30}, 3}, {{0, 10}, 1}, {{5, 15}, 2}});
  EXPECT_EQ(query(index, {7, 9}), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(query(index, {12, 25}), (std::vector<uint64_t>{2, 3}));
  EXPECT_TRUE(query(index, {15, 20}).empty());  // the gap
  EXPECT_TRUE(query(index, {30, 40}).empty());  // past every entry
}

TEST(IntervalIndex, EmptyQueryAndEmptyIndex) {
  const IntervalIndex empty(std::vector<IntervalIndex::Entry>{});
  EXPECT_TRUE(query(empty, {0, 100}).empty());
  IntervalIndex index({{{0, 10}, 1}});
  EXPECT_TRUE(query(index, {10, 10}).empty());  // empty interval
  EXPECT_TRUE(query(index, {5, 5}).empty());    // empty, inside an entry
}

TEST(IntervalIndex, TouchingEndpointsDoNotOverlap) {
  IntervalIndex index({{{0, 10}, 1}, {{20, 30}, 2}});
  EXPECT_TRUE(query(index, {10, 20}).empty());
  EXPECT_EQ(query(index, {9, 21}), (std::vector<uint64_t>{1, 2}));
}

// A long aliased interval keeps the running max high, so the search
// starts at it and the scan must still skip the short entries after it
// that end before the query.
TEST(IntervalIndex, AliasedLongIntervalCoversLaterEntries) {
  IntervalIndex index({{{0, 100}, 7},
                       {{10, 12}, 1},
                       {{20, 22}, 2},
                       {{50, 60}, 3},
                       {{100, 110}, 4}});
  EXPECT_EQ(query(index, {55, 56}), (std::vector<uint64_t>{7, 3}));
  EXPECT_EQ(query(index, {30, 40}), (std::vector<uint64_t>{7}));
  EXPECT_EQ(query(index, {99, 101}), (std::vector<uint64_t>{7, 4}));
  EXPECT_EQ(query(index, {100, 101}), (std::vector<uint64_t>{4}));
}

// Rect keys: one entry per rect, its axis-0 extent; hits are filtered
// by the full rect (the structured shallow intersection's lookup).
std::set<uint64_t> rect_query(const IntervalIndex& index,
                              const std::vector<Rect>& boxes, const Rect& q) {
  std::set<uint64_t> out;
  index.query({static_cast<uint64_t>(q.lo[0]), static_cast<uint64_t>(q.hi[0])},
              [&](uint64_t c) {
                if (boxes[c].overlaps(q)) out.insert(c);
              });
  return out;
}

IntervalIndex rect_keys(const std::vector<Rect>& boxes) {
  std::vector<IntervalIndex::Entry> entries;
  for (uint64_t c = 0; c < boxes.size(); ++c) {
    entries.push_back({{static_cast<uint64_t>(boxes[c].lo[0]),
                        static_cast<uint64_t>(boxes[c].hi[0])},
                       c});
  }
  return IntervalIndex(std::move(entries));
}

TEST(IntervalIndex, RectKeysFindOverlappingRects) {
  const std::vector<Rect> boxes{Rect::d2(0, 0, 4, 4), Rect::d2(3, 3, 8, 8),
                                Rect::d2(10, 10, 12, 12),
                                Rect::d2(3, 9, 4, 12)};
  EXPECT_EQ(rect_query(rect_keys(boxes), boxes, Rect::d2(3, 3, 4, 4)),
            (std::set<uint64_t>{0, 1}));
}

// The suite names predate IntervalIndex: the same seeds once checked the
// interval tree and the BVH it replaced. Both now check the index, with
// interval keys and with rect keys.
class IntervalTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalTreeProperty, MatchesBruteForce) {
  support::Rng rng(GetParam());
  std::vector<IntervalIndex::Entry> entries;
  for (uint64_t i = 0; i < 80; ++i) {
    const uint64_t lo = rng.next_below(1000);
    // Every tenth entry is long, aliasing the short ones after it.
    const uint64_t len = i % 10 == 0 ? 200 : 1 + rng.next_below(60);
    entries.push_back({{lo, lo + len}, i});
  }
  IntervalIndex index(entries);
  for (int q = 0; q < 30; ++q) {
    const uint64_t lo = rng.next_below(1000);
    const support::Interval qi{lo, lo + 1 + rng.next_below(100)};
    const std::vector<uint64_t> got = query(index, qi);
    std::multiset<uint64_t> want;
    for (const auto& e : entries) {
      if (e.iv.lo < qi.hi && e.iv.hi > qi.lo) want.insert(e.color);
    }
    EXPECT_EQ(std::multiset<uint64_t>(got.begin(), got.end()), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalTreeProperty,
                         ::testing::Range<uint64_t>(0, 20));

class BvhProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BvhProperty, MatchesBruteForce) {
  support::Rng rng(GetParam());
  std::vector<Rect> boxes;
  for (uint64_t i = 0; i < 100; ++i) {
    const int64_t x = rng.next_in(0, 90), y = rng.next_in(0, 90);
    boxes.push_back(
        Rect::d2(x, y, x + 1 + rng.next_in(0, 15), y + 1 + rng.next_in(0, 15)));
  }
  const IntervalIndex index = rect_keys(boxes);
  for (int q = 0; q < 30; ++q) {
    const int64_t x = rng.next_in(0, 90), y = rng.next_in(0, 90);
    const Rect qr = Rect::d2(x, y, x + 1 + rng.next_in(0, 25),
                             y + 1 + rng.next_in(0, 25));
    std::set<uint64_t> want;
    for (uint64_t c = 0; c < boxes.size(); ++c) {
      if (boxes[c].overlaps(qr)) want.insert(c);
    }
    EXPECT_EQ(rect_query(index, boxes, qr), want);
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

// Also checks the contract's order: sorted by (i, j), no duplicates.
std::set<std::pair<uint64_t, uint64_t>> to_set(
    const std::vector<IntersectionPair>& pairs) {
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end(),
                               [](const auto& a, const auto& b) {
                                 return !(a < b);
                               }),
            pairs.end());
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

// Random structured 2D and 3D grids, tiled evenly or unevenly, with
// holed tilings (kNoColor runs leave empty children) and aliased halo
// images that may wrap around axis 0 (a bounding rect spanning the
// grid), in both directions of the shallow intersection.
TEST_P(ShallowProperty, MatchesBruteForceOnRandomGrids) {
  support::Rng rng(GetParam());
  const int dim = 2 + static_cast<int>(GetParam() % 2);
  const bool even = GetParam() % 4 < 2;
  std::array<uint64_t, 3> tiles{1, 1, 1}, n{1, 1, 1};
  for (int d = 0; d < dim; ++d) {
    tiles[d] = 1 + rng.next_below(4);
    const uint64_t per = (dim == 2 ? 3 : 2) + rng.next_below(4);
    n[d] = tiles[d] * per + (even ? 0 : rng.next_below(tiles[d]));
  }
  const GridExtents e = dim == 2 ? GridExtents::d2(n[0], n[1])
                                 : GridExtents::d3(n[0], n[1], n[2]);
  RegionForest forest;
  RegionId g = forest.create_region(IndexSpace::grid(e), fs());
  const uint64_t colors = tiles[0] * tiles[1] * tiles[2];
  PartitionId tiled = partition_grid(forest, g, tiles);
  // The same tiling colored point by point, with about a third of the
  // tiles left out.
  std::vector<bool> hole(colors);
  for (uint64_t c = 0; c < colors; ++c) hole[c] = rng.next_below(3) == 0;
  PartitionId holed = partition_by_color(
      forest, g, colors, [&](uint64_t id) -> ColorRun {
        int64_t x[3];
        e.delinearize(id, x[0], x[1], x[2]);
        uint64_t c = 0;
        for (int d = 0; d < 3; ++d) {
          c = c * tiles[d] + static_cast<uint64_t>(x[d]) * tiles[d] / n[d];
        }
        return {hole[c] ? kNoColor : c, id + 1};
      });
  const int64_t radius = static_cast<int64_t>(rng.next_below(3));
  const int64_t wrap = rng.next_below(2) == 0
                           ? 0
                           : 1 + static_cast<int64_t>(rng.next_below(n[0]));
  auto halo_of = [&](PartitionId p) {
    return partition_image(
        forest, g, p, [&](uint64_t id, std::vector<uint64_t>& out) {
          int64_t x, y, z;
          e.delinearize(id, x, y, z);
          const int64_t rz = dim == 3 ? radius : 0;
          for (int64_t dx = -radius; dx <= radius; ++dx) {
            for (int64_t dy = -radius; dy <= radius; ++dy) {
              for (int64_t dz = -rz; dz <= rz; ++dz) {
                const int64_t nx = x + dx, ny = y + dy, nz = z + dz;
                if (nx >= 0 && nx < static_cast<int64_t>(n[0]) && ny >= 0 &&
                    ny < static_cast<int64_t>(n[1]) && nz >= 0 &&
                    nz < static_cast<int64_t>(n[2])) {
                  out.push_back(e.linearize(nx, ny, nz));
                }
              }
            }
          }
          if (wrap != 0) {
            out.push_back(e.linearize(
                (x + wrap) % static_cast<int64_t>(n[0]), y, z));
          }
        });
  };
  const PartitionId parts[] = {tiled, holed, halo_of(tiled), halo_of(holed)};
  for (PartitionId a : parts) {
    for (PartitionId b : parts) {
      EXPECT_EQ(to_set(shallow_intersections(forest, a, b)),
                brute_force_pairs(forest, a, b))
          << "partitions " << a << " x " << b;
    }
  }
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
