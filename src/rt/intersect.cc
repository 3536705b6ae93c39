#include "rt/intersect.h"

namespace cr::rt {

IntervalIndex::IntervalIndex(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.iv.lo < b.iv.lo; });
  max_hi_.reserve(entries_.size());
  uint64_t m = 0;
  for (const Entry& e : entries_) {
    m = std::max(m, e.iv.hi);
    max_hi_.push_back(m);
  }
}

IntervalIndex subregion_index(const RegionForest& forest, PartitionId p) {
  const PartitionNode& node = forest.partition(p);
  std::vector<IntervalIndex::Entry> entries;
  for (uint64_t c = 0; c < node.subregions.size(); ++c) {
    for (const support::Interval& iv :
         forest.region(node.subregions[c]).ispace.points().intervals()) {
      entries.push_back({iv, c});
    }
  }
  return IntervalIndex(std::move(entries));
}

void overlapping_colors(const IntervalIndex& index,
                        const support::IntervalSet& pts,
                        std::vector<uint64_t>& out) {
  out.clear();
  for (const support::Interval& iv : pts.intervals()) {
    index.query(iv, [&](uint64_t c) { out.push_back(c); });
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

namespace {

// Index over a structured partition's children. A child linearizes to
// one interval per row, so key it by its bounding rect instead: one
// entry per nonempty child, its axis-0 extent. `boxes` gets the rects by
// color.
IntervalIndex rect_index(const RegionForest& forest, const PartitionNode& p,
                         std::vector<Rect>& boxes) {
  boxes.assign(p.subregions.size(), Rect{});
  std::vector<IntervalIndex::Entry> entries;
  for (uint64_t c = 0; c < p.subregions.size(); ++c) {
    const IndexSpace& is = forest.region(p.subregions[c]).ispace;
    if (is.empty()) continue;
    boxes[c] = is.bounding_rect();
    entries.push_back({{static_cast<uint64_t>(boxes[c].lo[0]),
                        static_cast<uint64_t>(boxes[c].hi[0])},
                       c});
  }
  return IntervalIndex(std::move(entries));
}

}  // namespace

std::vector<IntersectionPair> shallow_intersections(const RegionForest& forest,
                                                    PartitionId src,
                                                    PartitionId dst) {
  const PartitionNode& ps = forest.partition(src);
  const PartitionNode& pd = forest.partition(dst);
  const IndexSpace& parent = forest.region(ps.parent).ispace;
  const bool by_rect = parent.structured() && parent.extents().dim >= 2;
  std::vector<Rect> boxes;  // by dst color, rect keys only
  const IntervalIndex index = by_rect ? rect_index(forest, pd, boxes)
                                      : subregion_index(forest, dst);

  std::vector<IntersectionPair> pairs;
  std::vector<uint64_t> hits;
  for (uint64_t i = 0; i < ps.subregions.size(); ++i) {
    const IndexSpace& is = forest.region(ps.subregions[i]).ispace;
    if (is.empty()) continue;
    if (!by_rect) {
      overlapping_colors(index, is.points(), hits);
    } else {
      const Rect box = is.bounding_rect();
      hits.clear();
      index.query({static_cast<uint64_t>(box.lo[0]),
                   static_cast<uint64_t>(box.hi[0])},
                  [&](uint64_t j) {
                    // Bounding rects are conservative; confirm exactly.
                    if (boxes[j].overlaps(box) &&
                        is.points().overlaps(
                            forest.region(pd.subregions[j]).ispace.points())) {
                      hits.push_back(j);
                    }
                  });
      std::sort(hits.begin(), hits.end());  // one entry per child: no dups
    }
    for (uint64_t j : hits) pairs.push_back({i, j});
  }
  return pairs;
}

support::IntervalSet complete_intersection(const RegionForest& forest,
                                           RegionId a, RegionId b) {
  return forest.region(a).ispace.points().set_intersect(
      forest.region(b).ispace.points());
}

}  // namespace cr::rt
