#include "rt/partition.h"

#include <algorithm>
#include <string>

#include "support/check.h"

namespace cr::rt {

namespace {

// A color callback broke the run contract: abort naming the partition
// and the run [p, end).
[[noreturn]] void bad_run(const std::string& name, uint64_t p, uint64_t end,
                          const char* what) {
  std::string msg = "partition_by_color '";
  msg += name;
  msg += "': color_run(";
  msg += std::to_string(p);
  msg += ") returned the run [";
  msg += std::to_string(p);
  msg += ", ";
  msg += std::to_string(end);
  msg += "), which ";
  msg += what;
  support::check_failed("a valid color run", __FILE__, __LINE__, msg.c_str());
}

}  // namespace

PartitionId partition_equal(RegionForest& forest, RegionId region,
                            uint64_t colors, std::string name) {
  CR_CHECK(colors > 0);
  const IndexSpace& is = forest.region(region).ispace;
  const uint64_t total = is.size();
  std::vector<IndexSpace> subs;
  subs.reserve(colors);
  uint64_t begin = 0;
  for (uint64_t c = 0; c < colors; ++c) {
    // Distribute the remainder over the first `total % colors` pieces.
    const uint64_t count = total / colors + (c < total % colors ? 1 : 0);
    support::IntervalSet pts;
    for (uint64_t k = begin; k < begin + count;) {
      // Copy whole intervals of the parent between the rank bounds.
      const uint64_t p = is.point_at(k);
      const auto& ivs = is.points().intervals();
      auto it = std::upper_bound(
          ivs.begin(), ivs.end(), p,
          [](uint64_t q, const support::Interval& iv) { return q < iv.lo; });
      const support::Interval iv = *(it - 1);
      const uint64_t take = std::min(iv.hi - p, begin + count - k);
      pts.append(p, p + take);
      k += take;
    }
    subs.push_back(is.subspace(std::move(pts)));
    begin += count;
  }
  return forest.create_partition(region, std::move(subs), /*disjoint=*/true,
                                 /*complete=*/true, std::move(name));
}

PartitionId partition_grid(RegionForest& forest, RegionId region,
                           std::array<uint64_t, 3> tiles, std::string name) {
  const IndexSpace& is = forest.region(region).ispace;
  const GridExtents& e = is.extents();
  for (int d = 0; d < 3; ++d) {
    CR_CHECK(tiles[d] > 0 && tiles[d] <= e.n[d]);
  }
  std::vector<IndexSpace> subs;
  subs.reserve(tiles[0] * tiles[1] * tiles[2]);
  auto tile_bounds = [](uint64_t n, uint64_t t, uint64_t i, int64_t& lo,
                        int64_t& hi) {
    // Even split with remainder spread over the leading tiles.
    const uint64_t base = n / t, rem = n % t;
    lo = static_cast<int64_t>(i * base + std::min<uint64_t>(i, rem));
    hi = lo + static_cast<int64_t>(base + (i < rem ? 1 : 0));
  };
  for (uint64_t tx = 0; tx < tiles[0]; ++tx) {
    for (uint64_t ty = 0; ty < tiles[1]; ++ty) {
      for (uint64_t tz = 0; tz < tiles[2]; ++tz) {
        Rect r;
        tile_bounds(e.n[0], tiles[0], tx, r.lo[0], r.hi[0]);
        tile_bounds(e.n[1], tiles[1], ty, r.lo[1], r.hi[1]);
        tile_bounds(e.n[2], tiles[2], tz, r.lo[2], r.hi[2]);
        subs.push_back(is.subspace(e.rect_ids(r)));
      }
    }
  }
  return forest.create_partition(region, std::move(subs), /*disjoint=*/true,
                                 /*complete=*/true, std::move(name));
}

PartitionId partition_by_color(
    RegionForest& forest, RegionId region, uint64_t colors,
    const std::function<ColorRun(uint64_t)>& color_run, std::string name) {
  CR_CHECK(colors > 0);
  const IndexSpace& is = forest.region(region).ispace;
  std::vector<support::IntervalSet> sets(colors);
  bool complete = true;
  for (const support::Interval& iv : is.points().intervals()) {
    for (uint64_t p = iv.lo; p < iv.hi;) {
      const ColorRun run = color_run(p);
      if (run.end <= p) {
        bad_run(name, p, run.end, "is empty: a run must end after p");
      }
      const uint64_t end = std::min(run.end, iv.hi);
#ifndef NDEBUG
      for (uint64_t q = p + 1; q < end; ++q) {
        if (color_run(q).color != run.color) {
          bad_run(name, p, run.end, "holds an id of another color");
        }
      }
#endif
      if (run.color == kNoColor) {
        complete = false;
      } else {
        CR_CHECK_MSG(run.color < colors, "color out of range");
        sets[run.color].append(p, end);
      }
      p = end;
    }
  }
  std::vector<IndexSpace> subs;
  subs.reserve(colors);
  for (auto& s : sets) subs.push_back(is.subspace(std::move(s)));
  return forest.create_partition(region, std::move(subs), /*disjoint=*/true,
                                 complete, std::move(name));
}

PartitionId partition_image(
    RegionForest& forest, RegionId region, PartitionId source,
    const std::function<void(uint64_t, std::vector<uint64_t>&)>& targets,
    std::string name) {
  const PartitionNode& src = forest.partition(source);
  const IndexSpace& window = forest.region(region).ispace;
  std::vector<IndexSpace> subs;
  subs.reserve(src.subregions.size());
  std::vector<uint64_t> pts;
  std::vector<uint64_t> buf;
  for (RegionId sub : src.subregions) {
    pts.clear();
    forest.region(sub).ispace.points().for_each_point([&](uint64_t x) {
      buf.clear();
      targets(x, buf);
      for (uint64_t y : buf) {
        if (window.contains(y)) pts.push_back(y);
      }
    });
    subs.push_back(window.subspace(support::IntervalSet::from_points(pts)));
  }
  // h is unconstrained, so the result must be assumed aliased and is not
  // in general complete (paper §2.1).
  return forest.create_partition(region, std::move(subs), /*disjoint=*/false,
                                 /*complete=*/false, std::move(name));
}

PartitionId partition_compose(
    RegionForest& forest, PartitionId source, uint64_t colors,
    const std::function<uint64_t(uint64_t)>& f, std::string name) {
  const PartitionNode& src = forest.partition(source);
  std::vector<IndexSpace> subs;
  subs.reserve(colors);
  for (uint64_t i = 0; i < colors; ++i) {
    const uint64_t j = f(i);
    CR_CHECK_MSG(j < src.subregions.size(), "projection out of range");
    subs.push_back(forest.region(src.subregions[j]).ispace);
  }
  return forest.create_partition(src.parent, std::move(subs),
                                 /*disjoint=*/false, /*complete=*/false,
                                 std::move(name));
}

}  // namespace cr::rt
