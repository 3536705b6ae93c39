#include "rt/region_tree.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "support/check.h"

namespace cr::rt {

namespace {

// "R3", "P7": built by appending, which GCC 12 at -O3 compiles without
// the false -Wrestrict it reports inside `"R" + std::to_string(id)`.
std::string default_name(char prefix, uint32_t id) {
  std::string out(1, prefix);
  out += std::to_string(id);
  return out;
}

}  // namespace

RegionId RegionForest::create_region(IndexSpace ispace,
                                     std::shared_ptr<FieldSpace> fs,
                                     std::string name) {
  const RegionId id = static_cast<RegionId>(regions_.size());
  RegionNode node;
  node.id = id;
  node.ispace = std::move(ispace);
  node.fields = std::move(fs);
  node.root = id;
  node.name = name.empty() ? default_name('R', id) : std::move(name);
  regions_.push_back(std::move(node));
  return id;
}

PartitionId RegionForest::create_partition(RegionId parent,
                                           std::vector<IndexSpace> subspaces,
                                           bool disjoint, bool complete,
                                           std::string name) {
  CR_CHECK(parent < regions_.size());
  const PartitionId pid = static_cast<PartitionId>(partitions_.size());
  PartitionNode pnode;
  pnode.id = pid;
  pnode.parent = parent;
  pnode.disjoint = disjoint;
  pnode.complete = complete;
  pnode.name = name.empty() ? default_name('P', pid) : std::move(name);

#ifndef NDEBUG
  // Verify the static disjointness claim and containment in the parent.
  for (size_t i = 0; i < subspaces.size(); ++i) {
    CR_CHECK_MSG(
        regions_[parent].ispace.points().contains_all(subspaces[i].points()),
        "subregion escapes parent region");
    if (disjoint) {
      for (size_t j = i + 1; j < subspaces.size(); ++j) {
        CR_CHECK_MSG(subspaces[i].points().disjoint(subspaces[j].points()),
                     "partition claimed disjoint but subregions overlap");
      }
    }
  }
#endif

  for (uint64_t color = 0; color < subspaces.size(); ++color) {
    const RegionId rid = static_cast<RegionId>(regions_.size());
    RegionNode sub;
    sub.id = rid;
    sub.ispace = std::move(subspaces[color]);
    sub.fields = regions_[parent].fields;
    sub.root = regions_[parent].root;
    sub.parent = pid;
    sub.depth = regions_[parent].depth + 1;
    sub.color = color;
    sub.name = pnode.name + "[" + std::to_string(color) + "]";
    regions_.push_back(std::move(sub));
    pnode.subregions.push_back(rid);
  }
  partitions_.push_back(std::move(pnode));
  regions_[parent].partitions.push_back(pid);
  return pid;
}

const RegionNode& RegionForest::region(RegionId id) const {
  CR_CHECK(id < regions_.size());
  return regions_[id];
}

const PartitionNode& RegionForest::partition(PartitionId id) const {
  CR_CHECK(id < partitions_.size());
  return partitions_[id];
}

RegionId RegionForest::subregion(PartitionId p, uint64_t color) const {
  const PartitionNode& node = partition(p);
  CR_CHECK(color < node.subregions.size());
  return node.subregions[color];
}

bool RegionForest::lca_disjoint(RegionId a, RegionId b) const {
  // Lift the deeper region to the shallower's depth; arriving at the
  // other region means ancestor/descendant.
  RegionId x = a, y = b;
  if (regions_[x].depth < regions_[y].depth) std::swap(x, y);
  while (regions_[x].depth > regions_[y].depth) {
    x = partitions_[regions_[x].parent].parent;
  }
  if (x == y) return false;
  // Walk up in lockstep until the paths meet (at the LCA region at the
  // latest, the shared tree root). The steps just below the meeting
  // point decide (paper §2.3): the same partition with different colors
  // is disjoint iff the partition is; different partitions of one
  // region prove nothing.
  while (true) {
    const PartitionId px = regions_[x].parent;
    const PartitionId py = regions_[y].parent;
    x = partitions_[px].parent;
    y = partitions_[py].parent;
    if (x == y) return px == py && partitions_[px].disjoint;
  }
}

bool RegionForest::may_alias(RegionId a, RegionId b) const {
  CR_CHECK(a < regions_.size() && b < regions_.size());
  if (a == b) return true;
  const RegionNode& na = regions_[a];
  const RegionNode& nb = regions_[b];
  if (na.root != nb.root) return false;  // separate trees
  if (na.parent != kNoId && na.parent == nb.parent) {
    // Siblings (colors differ since a != b): disjoint iff the shared
    // partition is, no walk needed.
    return !partitions_[na.parent].disjoint;
  }
  return !lca_disjoint(a, b);
}

bool RegionForest::partitions_may_alias(PartitionId p, PartitionId q) const {
  const PartitionNode& np = partition(p);
  const PartitionNode& nq = partition(q);
  if (p == q) return !np.disjoint;
  // The partitions' footprints are bounded by their parent regions; if
  // those are provably disjoint, no subregion pair can overlap.
  return may_alias(np.parent, nq.parent);
}

std::string RegionForest::to_string() const {
  std::ostringstream os;
  // Recursive printer over the forest structure.
  std::function<void(RegionId, int)> print_region =
      [&](RegionId r, int depth) {
        const RegionNode& node = regions_[r];
        os << std::string(static_cast<size_t>(depth) * 2, ' ') << node.name
           << " (" << node.ispace.size() << " elements)\n";
        for (PartitionId p : node.partitions) {
          const PartitionNode& pn = partitions_[p];
          os << std::string(static_cast<size_t>(depth + 1) * 2, ' ') << "*"
             << pn.name << " [" << (pn.disjoint ? "disjoint" : "aliased")
             << (pn.complete ? ", complete" : "") << ", "
             << pn.subregions.size() << " colors]\n";
          // Print subregion subtrees only when they carry further
          // structure; flat colors are summarized by the line above.
          for (RegionId sub : pn.subregions) {
            if (!regions_[sub].partitions.empty()) {
              print_region(sub, depth + 2);
            }
          }
        }
      };
  for (const RegionNode& node : regions_) {
    if (node.parent == kNoId) print_region(node.id, 0);
  }
  return os.str();
}

}  // namespace cr::rt
