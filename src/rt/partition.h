// Partitioning operators: the paper's sub-language for naming the data
// subsets parallel computations touch (paper §2.1 and [Treichler et al.,
// Dependent Partitioning]).
//
// Each operator builds the subspaces and registers the partition in the
// forest with the statically known disjointness/completeness of that
// operator: equal/block/grid/coloring are disjoint; images through
// unconstrained functions are aliased (the compiler must assume overlap).
// Every operator but the image works on whole intervals of ids, so the
// cost of building a partition follows the number of runs, not points.
#pragma once

#include <functional>
#include <vector>

#include "rt/region_tree.h"

namespace cr::rt {

// Split into `colors` contiguous, nearly equal pieces (by element rank).
// Disjoint and complete.
PartitionId partition_equal(RegionForest& forest, RegionId region,
                            uint64_t colors, std::string name = {});

// Structured tiling: tiles[d] tiles along dimension d of the region's
// grid. Disjoint and complete. The region must be structured.
PartitionId partition_grid(RegionForest& forest, RegionId region,
                           std::array<uint64_t, 3> tiles,
                           std::string name = {});

// Disjoint coloring by runs of consecutive ids (the pieces, slabs, tiles
// and columns the apps color are such runs). color_run(p) returns
// {color, end} with end > p, meaning every id in [p, end) has `color` in
// [0, colors), or kNoColor to be left out (making the partition
// incomplete). The operator walks the region's intervals, clipping each
// run to the interval it starts in, so it costs O(runs + intervals)
// callbacks and appends, not O(points). A per-point coloring is the run
// {c, p + 1}. An empty run aborts with a message that names the
// partition, and a color out of range aborts too. Debug builds also check
// every id of every run against the callback.
inline constexpr uint64_t kNoColor = ~0ull;
struct ColorRun {
  uint64_t color;
  uint64_t end;  // exclusive
};
PartitionId partition_by_color(
    RegionForest& forest, RegionId region, uint64_t colors,
    const std::function<ColorRun(uint64_t)>& color_run, std::string name = {});

// Image partition: subregion i = { y in `region` : y in targets(x), x in
// source[i] } — the paper's image(B, PB, h). Aliased (h unconstrained),
// generally incomplete. `targets` appends h(x) values to its out-param.
PartitionId partition_image(
    RegionForest& forest, RegionId region, PartitionId source,
    const std::function<void(uint64_t, std::vector<uint64_t>&)>& targets,
    std::string name = {});

// Composed projection: subregion i = source[f(i)] over `colors` colors;
// used to normalize region arguments p[f(i)] to q[i] (paper §2.2).
// Aliased unless f is injective, which we do not assume.
PartitionId partition_compose(
    RegionForest& forest, PartitionId source, uint64_t colors,
    const std::function<uint64_t(uint64_t)>& f, std::string name = {});

}  // namespace cr::rt
