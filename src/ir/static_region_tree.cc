#include "ir/static_region_tree.h"

namespace cr::ir {

bool StaticRegionTree::partitions_may_alias(rt::PartitionId p,
                                            rt::PartitionId q) const {
  if (p == q) return !forest_->partition(p).disjoint;
  if (hierarchical_) return forest_->partitions_may_alias(p, q);
  // Flat precision: ignore ancestry; two distinct partitions of the same
  // tree are assumed to overlap.
  const rt::RegionId rp = forest_->region(forest_->partition(p).parent).root;
  const rt::RegionId rq = forest_->region(forest_->partition(q).parent).root;
  return rp == rq;
}

}  // namespace cr::ir
