#include "rt/geometry.h"

#include <gtest/gtest.h>

namespace cr::rt {
namespace {

TEST(Rect, VolumeAndEmpty) {
  EXPECT_EQ(Rect::d1(0, 5).volume(), 5u);
  EXPECT_EQ(Rect::d2(0, 0, 3, 4).volume(), 12u);
  EXPECT_EQ(Rect::d3(1, 1, 1, 3, 3, 3).volume(), 8u);
  EXPECT_TRUE(Rect::d1(5, 5).empty());
  EXPECT_TRUE(Rect::d2(0, 3, 4, 3).empty());
}

TEST(Rect, OverlapsAndContains) {
  auto a = Rect::d2(0, 0, 4, 4);
  auto b = Rect::d2(3, 3, 6, 6);
  auto c = Rect::d2(4, 0, 8, 4);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));  // touching edges do not overlap
  EXPECT_TRUE(a.contains(Rect::d2(1, 1, 3, 3)));
  EXPECT_FALSE(a.contains(b));
}

TEST(Rect, Intersect) {
  auto a = Rect::d2(0, 0, 4, 4);
  auto b = Rect::d2(2, 1, 6, 3);
  EXPECT_EQ(a.intersect(b), Rect::d2(2, 1, 4, 3));
  EXPECT_TRUE(a.intersect(Rect::d2(4, 0, 8, 4)).empty());
}

TEST(GridExtents, LinearizeRoundTrip2D) {
  auto e = GridExtents::d2(5, 7);
  for (int64_t x = 0; x < 5; ++x) {
    for (int64_t y = 0; y < 7; ++y) {
      int64_t rx, ry, rz;
      e.delinearize(e.linearize(x, y), rx, ry, rz);
      EXPECT_EQ(rx, x);
      EXPECT_EQ(ry, y);
      EXPECT_EQ(rz, 0);
    }
  }
}

TEST(GridExtents, LinearizeRoundTrip3D) {
  auto e = GridExtents::d3(3, 4, 5);
  for (int64_t x = 0; x < 3; ++x) {
    for (int64_t y = 0; y < 4; ++y) {
      for (int64_t z = 0; z < 5; ++z) {
        int64_t rx, ry, rz;
        e.delinearize(e.linearize(x, y, z), rx, ry, rz);
        EXPECT_EQ(rx, x);
        EXPECT_EQ(ry, y);
        EXPECT_EQ(rz, z);
      }
    }
  }
}

TEST(GridExtents, InnermostDimIsContiguous) {
  auto e = GridExtents::d2(4, 6);
  EXPECT_EQ(e.linearize(2, 3) + 1, e.linearize(2, 4));
  auto e3 = GridExtents::d3(2, 3, 4);
  EXPECT_EQ(e3.linearize(1, 2, 0) + 1, e3.linearize(1, 2, 1));
}

TEST(GridExtents, RectIdsFullSlabIsOneInterval) {
  auto e = GridExtents::d2(8, 10);
  // A full-width slab of rows 2..4 is contiguous in row-major order.
  auto ids = e.rect_ids(Rect::d2(2, 0, 5, 10));
  EXPECT_EQ(ids.interval_count(), 1u);
  EXPECT_EQ(ids.size(), 30u);
}

TEST(GridExtents, RectIdsTileHasRowSegments) {
  auto e = GridExtents::d2(8, 10);
  auto ids = e.rect_ids(Rect::d2(2, 3, 5, 7));
  EXPECT_EQ(ids.interval_count(), 3u);  // one segment per x-row
  EXPECT_EQ(ids.size(), 12u);
  EXPECT_TRUE(ids.contains(e.linearize(3, 5)));
  EXPECT_FALSE(ids.contains(e.linearize(3, 8)));
}

TEST(GridExtents, RectIdsMatchPointwiseEnumeration3D) {
  auto e = GridExtents::d3(4, 5, 6);
  auto r = Rect::d3(1, 2, 3, 3, 4, 6);
  auto ids = e.rect_ids(r);
  uint64_t count = 0;
  for (int64_t x = r.lo[0]; x < r.hi[0]; ++x) {
    for (int64_t y = r.lo[1]; y < r.hi[1]; ++y) {
      for (int64_t z = r.lo[2]; z < r.hi[2]; ++z) {
        EXPECT_TRUE(ids.contains(e.linearize(x, y, z)));
        ++count;
      }
    }
  }
  EXPECT_EQ(ids.size(), count);
}

TEST(GridExtents, EmptyRectGivesEmptyIds) {
  auto e = GridExtents::d2(4, 4);
  EXPECT_TRUE(e.rect_ids(Rect::d2(2, 2, 2, 4)).empty());
}

}  // namespace
}  // namespace cr::rt
