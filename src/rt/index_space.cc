#include "rt/index_space.h"

#include <algorithm>

#include "support/check.h"

namespace cr::rt {

IndexSpace IndexSpace::dense(uint64_t n) {
  IndexSpace out;
  out.points_ = support::IntervalSet::range(0, n);
  out.extents_ = GridExtents::d1(n);
  out.finish();
  return out;
}

IndexSpace IndexSpace::grid(GridExtents extents) {
  IndexSpace out;
  out.points_ = support::IntervalSet::range(0, extents.volume());
  out.extents_ = extents;
  out.finish();
  return out;
}

IndexSpace IndexSpace::unstructured(support::IntervalSet points) {
  IndexSpace out;
  out.points_ = std::move(points);
  out.finish();
  return out;
}

IndexSpace IndexSpace::subspace(support::IntervalSet points) const {
  CR_DCHECK(points_.contains_all(points));
  IndexSpace out;
  out.points_ = std::move(points);
  out.extents_ = extents_;
  out.finish();
  return out;
}

const GridExtents& IndexSpace::extents() const {
  CR_CHECK_MSG(extents_.has_value(), "unstructured index space");
  return *extents_;
}

Rect IndexSpace::bounding_rect() const {
  CR_CHECK(!empty());
  const support::Interval b = points_.bounds();
  if (!structured()) return Rect::d1(static_cast<int64_t>(b.lo),
                                     static_cast<int64_t>(b.hi));
  const uint64_t ny = extents_->n[1], nz = extents_->n[2];
  // Ids are row-major with x outermost, so the bounds alone give x.
  Rect out = Rect::d3(static_cast<int64_t>(b.lo / (ny * nz)), INT64_MAX,
                      INT64_MAX,
                      static_cast<int64_t>((b.hi - 1) / (ny * nz) + 1),
                      INT64_MIN, INT64_MIN);
  // A run [lo, hi) of consecutive units along dimension d (extent m)
  // covers [lo % m, (hi - 1) % m] if it stays within one row of d, and
  // the whole extent otherwise. So the result is conservative (a
  // superset bbox) for runs that wrap across rows: the shallow
  // intersection confirms every rect hit exactly and needs nothing
  // tighter. A unit extent takes no division.
  auto expand = [&](int d, uint64_t lo, uint64_t hi, uint64_t m) {
    uint64_t first = 0, last = m - 1;
    if (hi - lo < m && lo % m <= (hi - 1) % m) {
      first = lo % m;
      last = (hi - 1) % m;
    }
    out.lo[d] = std::min(out.lo[d], static_cast<int64_t>(first));
    out.hi[d] = std::max(out.hi[d], static_cast<int64_t>(last + 1));
  };
  for (const support::Interval& iv : points_.intervals()) {
    expand(2, iv.lo, iv.hi, nz);
    // The rows (x, y) the run touches; ids are rows when nz == 1.
    expand(1, nz == 1 ? iv.lo : iv.lo / nz,
           nz == 1 ? iv.hi : (iv.hi - 1) / nz + 1, ny);
  }
  return out;
}

uint64_t IndexSpace::rank(uint64_t point) const {
  const auto& ivs = points_.intervals();
  auto it = std::upper_bound(
      ivs.begin(), ivs.end(), point,
      [](uint64_t p, const support::Interval& iv) { return p < iv.lo; });
  CR_CHECK_MSG(it != ivs.begin(), "point not in index space");
  const size_t idx = static_cast<size_t>(it - ivs.begin()) - 1;
  CR_CHECK_MSG(point < ivs[idx].hi, "point not in index space");
  return prefix_[idx] + (point - ivs[idx].lo);
}

void IndexSpace::finish() {
  const auto& ivs = points_.intervals();
  prefix_.resize(ivs.size());
  uint64_t total = 0;
  for (size_t i = 0; i < ivs.size(); ++i) {
    prefix_[i] = total;
    total += ivs[i].size();
  }
  total_ = total;
}

}  // namespace cr::rt
