// Index spaces: named sets of element ids, the domains of logical
// regions (paper §2.1). An index space is an IntervalSet of ids plus
// optional structured-grid metadata (extents of the root grid it was
// carved from), which partitioning operators and the rect-keyed shallow
// intersection use to reason geometrically.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "rt/geometry.h"
#include "support/interval_set.h"

namespace cr::rt {

class IndexSpace {
 public:
  IndexSpace() = default;

  // A dense 1-D space [0, n).
  static IndexSpace dense(uint64_t n);
  // A dense structured grid (ids are the row-major linearization).
  static IndexSpace grid(GridExtents extents);
  // An arbitrary unstructured set of ids.
  static IndexSpace unstructured(support::IntervalSet points);
  // A subspace: same structure metadata as parent, subset of its points.
  IndexSpace subspace(support::IntervalSet points) const;

  uint64_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  bool contains(uint64_t p) const { return points_.contains(p); }
  const support::IntervalSet& points() const { return points_; }

  bool structured() const { return extents_.has_value(); }
  const GridExtents& extents() const;

  // Bounding rect in grid coordinates (structured) or in id space mapped
  // to dimension 0 (unstructured). Undefined for empty spaces.
  Rect bounding_rect() const;

  // Position of `point` within this space's ordered point list; the
  // inverse of nth_point. O(log intervals). Used by physical instances
  // to map ids to storage offsets.
  uint64_t rank(uint64_t point) const;
  uint64_t point_at(uint64_t r) const { return points_.nth_point(r); }

 private:
  void finish();  // compute prefix sums + total

  support::IntervalSet points_;
  std::vector<uint64_t> prefix_;  // points before interval i
  uint64_t total_ = 0;
  std::optional<GridExtents> extents_;
};

}  // namespace cr::rt
