// Structured-grid geometry: points and rectangles in up to 3 dimensions,
// with row-major linearization to the uint64 element ids used by
// IntervalSet-based index spaces.
//
// Convention: a grid with extents (nx, ny, nz) linearizes point (x, y, z)
// as (x * ny + y) * nz + z, so the innermost dimension is contiguous and
// slabs along dimension 0 are contiguous id ranges. Rects are half-open:
// [lo, hi) in every dimension.
#pragma once

#include <array>
#include <cstdint>

#include "support/check.h"
#include "support/interval_set.h"

namespace cr::rt {

struct Rect {
  // Unused dimensions have lo = 0, hi = 1.
  std::array<int64_t, 3> lo{0, 0, 0};
  std::array<int64_t, 3> hi{1, 1, 1};

  static Rect d1(int64_t lo_x, int64_t hi_x) {
    return Rect{{lo_x, 0, 0}, {hi_x, 1, 1}};
  }
  static Rect d2(int64_t lo_x, int64_t lo_y, int64_t hi_x, int64_t hi_y) {
    return Rect{{lo_x, lo_y, 0}, {hi_x, hi_y, 1}};
  }
  static Rect d3(int64_t lo_x, int64_t lo_y, int64_t lo_z, int64_t hi_x,
                 int64_t hi_y, int64_t hi_z) {
    return Rect{{lo_x, lo_y, lo_z}, {hi_x, hi_y, hi_z}};
  }

  bool empty() const {
    return lo[0] >= hi[0] || lo[1] >= hi[1] || lo[2] >= hi[2];
  }
  uint64_t volume() const {
    if (empty()) return 0;
    return static_cast<uint64_t>(hi[0] - lo[0]) *
           static_cast<uint64_t>(hi[1] - lo[1]) *
           static_cast<uint64_t>(hi[2] - lo[2]);
  }
  bool overlaps(const Rect& o) const {
    for (int d = 0; d < 3; ++d) {
      if (hi[d] <= o.lo[d] || o.hi[d] <= lo[d]) return false;
    }
    return true;
  }
  bool contains(const Rect& o) const {
    for (int d = 0; d < 3; ++d) {
      if (o.lo[d] < lo[d] || o.hi[d] > hi[d]) return false;
    }
    return true;
  }
  Rect intersect(const Rect& o) const {
    Rect out;
    for (int d = 0; d < 3; ++d) {
      out.lo[d] = lo[d] > o.lo[d] ? lo[d] : o.lo[d];
      out.hi[d] = hi[d] < o.hi[d] ? hi[d] : o.hi[d];
    }
    return out;
  }
  friend bool operator==(const Rect&, const Rect&) = default;
};

struct GridExtents {
  // Extents of the (dense) root grid; unused dims are 1.
  std::array<uint64_t, 3> n{1, 1, 1};
  int dim = 1;

  static GridExtents d1(uint64_t nx) { return {{nx, 1, 1}, 1}; }
  static GridExtents d2(uint64_t nx, uint64_t ny) { return {{nx, ny, 1}, 2}; }
  static GridExtents d3(uint64_t nx, uint64_t ny, uint64_t nz) {
    return {{nx, ny, nz}, 3};
  }

  uint64_t volume() const { return n[0] * n[1] * n[2]; }

  uint64_t linearize(int64_t x, int64_t y = 0, int64_t z = 0) const {
    CR_DCHECK(x >= 0 && static_cast<uint64_t>(x) < n[0]);
    CR_DCHECK(y >= 0 && static_cast<uint64_t>(y) < n[1]);
    CR_DCHECK(z >= 0 && static_cast<uint64_t>(z) < n[2]);
    return (static_cast<uint64_t>(x) * n[1] + static_cast<uint64_t>(y)) *
               n[2] +
           static_cast<uint64_t>(z);
  }

  void delinearize(uint64_t id, int64_t& x, int64_t& y, int64_t& z) const {
    z = static_cast<int64_t>(id % n[2]);
    id /= n[2];
    y = static_cast<int64_t>(id % n[1]);
    x = static_cast<int64_t>(id / n[1]);
  }

  // The ids covered by a rect, as row segments: one interval per
  // contiguous run along the innermost *used* dimension (y for 2D, z for
  // 3D), so a full-width slab collapses to a single interval.
  support::IntervalSet rect_ids(const Rect& r) const {
    support::IntervalSet out;
    if (r.empty()) return out;
    CR_CHECK(r.lo[0] >= 0 && r.lo[1] >= 0 && r.lo[2] >= 0);
    CR_CHECK(static_cast<uint64_t>(r.hi[0]) <= n[0] &&
             static_cast<uint64_t>(r.hi[1]) <= n[1] &&
             static_cast<uint64_t>(r.hi[2]) <= n[2]);
    switch (dim) {
      case 1:
        out.append(linearize(r.lo[0]),
                   linearize(r.hi[0] - 1) + 1);
        break;
      case 2:
        for (int64_t x = r.lo[0]; x < r.hi[0]; ++x) {
          const uint64_t base = linearize(x, r.lo[1]);
          out.append(base, base + static_cast<uint64_t>(r.hi[1] - r.lo[1]));
        }
        break;
      case 3:
        for (int64_t x = r.lo[0]; x < r.hi[0]; ++x) {
          for (int64_t y = r.lo[1]; y < r.hi[1]; ++y) {
            const uint64_t base = linearize(x, y, r.lo[2]);
            out.append(base,
                       base + static_cast<uint64_t>(r.hi[2] - r.lo[2]));
          }
        }
        break;
      default:
        CR_UNREACHABLE("bad grid dim");
    }
    return out;
  }

  friend bool operator==(const GridExtents&, const GridExtents&) = default;
};

}  // namespace cr::rt
