#include "rt/intersect.h"

#include <algorithm>

#include "support/check.h"

namespace cr::rt {

// ---------------------------------------------------------------------
// IntervalTree: entries sorted by lo; each "node" is the midpoint of a
// subarray, augmented with the subtree's max hi for pruning.
// ---------------------------------------------------------------------

IntervalTree::IntervalTree(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.iv.lo != b.iv.lo ? a.iv.lo < b.iv.lo
                                        : a.iv.hi < b.iv.hi;
            });
  max_hi_.assign(entries_.size(), 0);
  if (!entries_.empty()) build(0, entries_.size());
}

void IntervalTree::build(size_t lo, size_t hi) {
  const size_t mid = lo + (hi - lo) / 2;
  uint64_t m = entries_[mid].iv.hi;
  if (mid > lo) {
    build(lo, mid);
    m = std::max(m, max_hi_[lo + (mid - lo) / 2]);
  }
  if (mid + 1 < hi) {
    build(mid + 1, hi);
    m = std::max(m, max_hi_[mid + 1 + (hi - mid - 1) / 2]);
  }
  max_hi_[mid] = m;
}

void IntervalTree::query(support::Interval q,
                         std::vector<uint64_t>& out) const {
  if (entries_.empty() || q.empty()) return;
  query_rec(0, entries_.size(), q, out);
}

void IntervalTree::query_rec(size_t lo, size_t hi, support::Interval q,
                             std::vector<uint64_t>& out) const {
  const size_t mid = lo + (hi - lo) / 2;
  // Prune: nothing in this subtree ends after q.lo.
  if (max_hi_[mid] <= q.lo) return;
  if (mid > lo) query_rec(lo, mid, q, out);
  const Entry& e = entries_[mid];
  if (e.iv.lo < q.hi && e.iv.hi > q.lo) out.push_back(e.payload);
  // Entries right of mid all have iv.lo >= e.iv.lo; skip if past q.
  if (e.iv.lo < q.hi && mid + 1 < hi) query_rec(mid + 1, hi, q, out);
}

// ---------------------------------------------------------------------
// Bvh
// ---------------------------------------------------------------------

Bvh::Bvh(std::vector<Entry> entries) : entries_(std::move(entries)) {
  if (!entries_.empty()) {
    nodes_.reserve(2 * entries_.size());
    build(0, static_cast<uint32_t>(entries_.size()));
  }
}

uint32_t Bvh::build(uint32_t begin, uint32_t end) {
  const uint32_t idx = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  Rect box = entries_[begin].box;
  for (uint32_t i = begin + 1; i < end; ++i) {
    box = box.bbox_union(entries_[i].box);
  }
  nodes_[idx].box = box;
  if (end - begin <= 4) {
    nodes_[idx].begin = begin;
    nodes_[idx].end = end;
    return idx;
  }
  // Split on the widest axis at the median entry center.
  int axis = 0;
  int64_t widest = -1;
  for (int d = 0; d < 3; ++d) {
    const int64_t w = box.hi[d] - box.lo[d];
    if (w > widest) {
      widest = w;
      axis = d;
    }
  }
  const uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(entries_.begin() + begin, entries_.begin() + mid,
                   entries_.begin() + end,
                   [axis](const Entry& a, const Entry& b) {
                     return a.box.lo[axis] + a.box.hi[axis] <
                            b.box.lo[axis] + b.box.hi[axis];
                   });
  const uint32_t l = build(begin, mid);
  const uint32_t r = build(mid, end);
  nodes_[idx].left = l;
  nodes_[idx].right = r;
  return idx;
}

void Bvh::query(const Rect& q, std::vector<uint64_t>& out) const {
  if (nodes_.empty() || q.empty()) return;
  // Explicit stack; the tree is shallow (log n).
  std::vector<uint32_t> stack{0};
  while (!stack.empty()) {
    const Node& n = nodes_[stack.back()];
    stack.pop_back();
    if (!n.box.overlaps(q)) continue;
    if (n.left == 0 && n.right == 0) {
      for (uint32_t i = n.begin; i < n.end; ++i) {
        if (entries_[i].box.overlaps(q)) out.push_back(entries_[i].payload);
      }
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
}

// ---------------------------------------------------------------------
// Shallow / complete intersections
// ---------------------------------------------------------------------

IntervalTree subregion_index(const RegionForest& forest, PartitionId p) {
  const PartitionNode& node = forest.partition(p);
  std::vector<IntervalTree::Entry> entries;
  for (uint64_t c = 0; c < node.subregions.size(); ++c) {
    for (const support::Interval& iv :
         forest.region(node.subregions[c]).ispace.points().intervals()) {
      entries.push_back({iv, c});
    }
  }
  return IntervalTree(std::move(entries));
}

void overlapping_colors(const IntervalTree& index,
                        const support::IntervalSet& pts,
                        std::vector<uint64_t>& out) {
  out.clear();
  for (const support::Interval& iv : pts.intervals()) index.query(iv, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

namespace {

std::vector<IntersectionPair> shallow_unstructured(const RegionForest& forest,
                                                   PartitionId src,
                                                   PartitionId dst) {
  const PartitionNode& ps = forest.partition(src);
  const IntervalTree tree = subregion_index(forest, dst);
  std::vector<IntersectionPair> pairs;
  std::vector<uint64_t> hits;
  for (uint64_t i = 0; i < ps.subregions.size(); ++i) {
    overlapping_colors(tree, forest.region(ps.subregions[i]).ispace.points(),
                       hits);
    for (uint64_t j : hits) pairs.push_back({i, j});
  }
  return pairs;
}

std::vector<IntersectionPair> shallow_structured(const RegionForest& forest,
                                                 PartitionId src,
                                                 PartitionId dst) {
  const PartitionNode& ps = forest.partition(src);
  const PartitionNode& pd = forest.partition(dst);
  std::vector<Bvh::Entry> entries;
  for (uint64_t j = 0; j < pd.subregions.size(); ++j) {
    const IndexSpace& is = forest.region(pd.subregions[j]).ispace;
    if (is.empty()) continue;
    entries.push_back({is.bounding_rect(), j});
  }
  Bvh bvh(std::move(entries));
  std::vector<IntersectionPair> pairs;
  std::vector<uint64_t> hits;
  for (uint64_t i = 0; i < ps.subregions.size(); ++i) {
    const IndexSpace& is = forest.region(ps.subregions[i]).ispace;
    if (is.empty()) continue;
    hits.clear();
    bvh.query(is.bounding_rect(), hits);
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    for (uint64_t j : hits) {
      // Bounding boxes are conservative; confirm with the exact sets.
      if (is.points().overlaps(
              forest.region(pd.subregions[j]).ispace.points())) {
        pairs.push_back({i, j});
      }
    }
  }
  return pairs;
}

}  // namespace

std::vector<IntersectionPair> shallow_intersections(const RegionForest& forest,
                                                    PartitionId src,
                                                    PartitionId dst) {
  const RegionId src_parent = forest.partition(src).parent;
  const bool structured =
      forest.region(src_parent).ispace.structured() &&
      forest.region(src_parent).ispace.extents().dim >= 2;
  auto pairs = structured ? shallow_structured(forest, src, dst)
                          : shallow_unstructured(forest, src, dst);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

support::IntervalSet complete_intersection(const RegionForest& forest,
                                           RegionId a, RegionId b) {
  return forest.region(a).ispace.points().set_intersect(
      forest.region(b).ispace.points());
}

}  // namespace cr::rt
