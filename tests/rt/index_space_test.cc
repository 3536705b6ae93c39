#include "rt/index_space.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/rng.h"

namespace cr::rt {
namespace {

TEST(IndexSpace, DenseBasics) {
  auto is = IndexSpace::dense(10);
  EXPECT_EQ(is.size(), 10u);
  EXPECT_TRUE(is.contains(0) && is.contains(9));
  EXPECT_FALSE(is.contains(10));
  EXPECT_TRUE(is.structured());
}

TEST(IndexSpace, GridVolume) {
  auto is = IndexSpace::grid(GridExtents::d2(4, 6));
  EXPECT_EQ(is.size(), 24u);
  EXPECT_EQ(is.extents().dim, 2);
}

TEST(IndexSpace, UnstructuredFromIntervals) {
  auto is = IndexSpace::unstructured(
      support::IntervalSet::from_points({3, 5, 6, 7, 100}));
  EXPECT_EQ(is.size(), 5u);
  EXPECT_FALSE(is.structured());
}

TEST(IndexSpace, SubspaceInheritsStructure) {
  auto is = IndexSpace::grid(GridExtents::d2(4, 4));
  auto sub = is.subspace(support::IntervalSet::range(4, 8));
  EXPECT_TRUE(sub.structured());
  EXPECT_EQ(sub.size(), 4u);
}

TEST(IndexSpace, RankIsInverseOfPointAt) {
  auto is = IndexSpace::unstructured(
      support::IntervalSet::from_points({2, 3, 10, 11, 12, 50}));
  for (uint64_t r = 0; r < is.size(); ++r) {
    EXPECT_EQ(is.rank(is.point_at(r)), r);
  }
}

TEST(IndexSpace, RankDense) {
  auto is = IndexSpace::dense(100);
  EXPECT_EQ(is.rank(0), 0u);
  EXPECT_EQ(is.rank(57), 57u);
}

TEST(IndexSpace, BoundingRectOfGridTile) {
  auto grid = IndexSpace::grid(GridExtents::d2(8, 8));
  auto tile = grid.subspace(grid.extents().rect_ids(Rect::d2(2, 3, 5, 7)));
  EXPECT_EQ(tile.bounding_rect(), Rect::d2(2, 3, 5, 7));
}

TEST(IndexSpace, BoundingRectConservativeForWrappedInterval) {
  auto grid = IndexSpace::grid(GridExtents::d2(4, 4));
  // ids 2..10 wrap across rows; the bbox must contain all of them.
  auto sub = grid.subspace(support::IntervalSet::range(2, 10));
  Rect bb = sub.bounding_rect();
  sub.points().for_each_point([&](uint64_t id) {
    int64_t x, y, z;
    grid.extents().delinearize(id, x, y, z);
    EXPECT_TRUE(bb.contains(Rect::d2(x, y, x + 1, y + 1)))
        << "point (" << x << "," << y << ") escapes bbox";
  });
}

// Random runs on 1-D, 2-D and 3-D grids: the rect holds every point, its
// x extent is exact, and it is exact whenever no run leaves its
// innermost row.
TEST(IndexSpace, BoundingRectCoversRandomRuns) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    support::Rng rng(seed);
    const uint64_t nx = 1 + rng.next_below(7), ny = 1 + rng.next_below(7),
                   nz = 1 + rng.next_below(7);
    const GridExtents e = seed % 3 == 0   ? GridExtents::d1(nx)
                          : seed % 3 == 1 ? GridExtents::d2(nx, ny)
                                          : GridExtents::d3(nx, ny, nz);
    const uint64_t row = e.n[e.dim - 1];
    support::IntervalSet pts;
    for (uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
      const uint64_t lo = rng.next_below(e.volume());
      pts.add(lo, std::min(e.volume(), lo + 1 + rng.next_below(row)));
    }
    bool one_row_each = true;
    for (const support::Interval& iv : pts.intervals()) {
      one_row_each = one_row_each && iv.lo / row == (iv.hi - 1) / row;
    }
    const IndexSpace sub = IndexSpace::grid(e).subspace(pts);
    Rect exact{{INT64_MAX, INT64_MAX, INT64_MAX},
               {INT64_MIN, INT64_MIN, INT64_MIN}};
    pts.for_each_point([&](uint64_t id) {
      int64_t c[3];
      e.delinearize(id, c[0], c[1], c[2]);
      for (int d = 0; d < 3; ++d) {
        exact.lo[d] = std::min(exact.lo[d], c[d]);
        exact.hi[d] = std::max(exact.hi[d], c[d] + 1);
      }
    });
    const Rect bb = sub.bounding_rect();
    EXPECT_TRUE(bb.contains(exact)) << "seed " << seed;
    EXPECT_EQ(bb.lo[0], exact.lo[0]) << "seed " << seed;
    EXPECT_EQ(bb.hi[0], exact.hi[0]) << "seed " << seed;
    if (one_row_each) {
      EXPECT_EQ(bb, exact) << "seed " << seed;
    }
  }
}

TEST(IndexSpace, BoundingRectUnstructured) {
  auto is = IndexSpace::unstructured(
      support::IntervalSet::from_points({5, 9, 17}));
  EXPECT_EQ(is.bounding_rect(), Rect::d1(5, 18));
}

TEST(IndexSpaceDeath, RankOfMissingPointAborts) {
  auto is = IndexSpace::unstructured(
      support::IntervalSet::from_points({1, 5}));
  EXPECT_DEATH((void)is.rank(3), "point not in index space");
}

}  // namespace
}  // namespace cr::rt
