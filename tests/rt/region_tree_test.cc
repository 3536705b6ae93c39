#include "rt/region_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "rt/partition.h"
#include "support/rng.h"

namespace cr::rt {
namespace {

std::shared_ptr<FieldSpace> fs() {
  auto f = std::make_shared<FieldSpace>();
  f->add_field("v");
  return f;
}

// Build the paper's Figure 3 tree: region A with disjoint PA; region B
// with disjoint PB and aliased QB.
struct Fig3 {
  RegionForest forest;
  RegionId a, b;
  PartitionId pa, pb, qb;
  Fig3() {
    a = forest.create_region(IndexSpace::dense(12), fs(), "A");
    b = forest.create_region(IndexSpace::dense(12), fs(), "B");
    pa = partition_equal(forest, a, 3, "PA");
    pb = partition_equal(forest, b, 3, "PB");
    qb = partition_image(
        forest, b, pb, [](uint64_t x, std::vector<uint64_t>& out) {
          out.push_back((x + 3) % 12);  // neighbor shift: aliases PB
        },
        "QB");
  }
};

TEST(RegionTree, DifferentTreesNeverAlias) {
  Fig3 t;
  EXPECT_FALSE(t.forest.may_alias(t.a, t.b));
  EXPECT_FALSE(t.forest.may_alias(t.forest.subregion(t.pa, 0),
                                  t.forest.subregion(t.pb, 0)));
}

TEST(RegionTree, SiblingsOfDisjointPartitionDontAlias) {
  Fig3 t;
  EXPECT_FALSE(t.forest.may_alias(t.forest.subregion(t.pb, 0),
                                  t.forest.subregion(t.pb, 1)));
}

TEST(RegionTree, SiblingsOfAliasedPartitionMayAlias) {
  Fig3 t;
  EXPECT_TRUE(t.forest.may_alias(t.forest.subregion(t.qb, 0),
                                 t.forest.subregion(t.qb, 1)));
}

TEST(RegionTree, CousinsAcrossPartitionsMayAlias) {
  // PB[0] and QB[1] diverge at region B into different partitions.
  Fig3 t;
  EXPECT_TRUE(t.forest.may_alias(t.forest.subregion(t.pb, 0),
                                 t.forest.subregion(t.qb, 1)));
}

TEST(RegionTree, AncestorAliasesDescendant) {
  Fig3 t;
  EXPECT_TRUE(t.forest.may_alias(t.b, t.forest.subregion(t.pb, 2)));
  EXPECT_TRUE(t.forest.may_alias(t.forest.subregion(t.pb, 2), t.b));
}

TEST(RegionTree, SelfAliases) {
  Fig3 t;
  EXPECT_TRUE(t.forest.may_alias(t.b, t.b));
}

TEST(RegionTree, PartitionsMayAliasMatrix) {
  Fig3 t;
  EXPECT_FALSE(t.forest.partitions_may_alias(t.pb, t.pb));  // disjoint
  EXPECT_TRUE(t.forest.partitions_may_alias(t.qb, t.qb));   // aliased
  EXPECT_TRUE(t.forest.partitions_may_alias(t.pb, t.qb));   // same region
  EXPECT_FALSE(t.forest.partitions_may_alias(t.pa, t.pb));  // other tree
}

// Paper §4.5 / Figure 5: a hierarchical private/ghost split makes the
// private partition provably disjoint from the ghost partitions.
TEST(RegionTree, HierarchicalPrivateGhostProvesDisjointness) {
  RegionForest forest;
  RegionId b = forest.create_region(IndexSpace::dense(20), fs(), "B");
  PartitionId pvg = partition_by_color(
      forest, b, 2,
      [](uint64_t id) { return ColorRun{id < 12 ? 0u : 1u, id + 1}; },
      "private_v_ghost");
  RegionId all_private = forest.subregion(pvg, 0);
  RegionId all_ghost = forest.subregion(pvg, 1);
  PartitionId pb = partition_equal(forest, all_private, 4, "PB");
  PartitionId sb = partition_equal(forest, all_ghost, 4, "SB");
  PartitionId qb = partition_image(
      forest, all_ghost, sb,
      [](uint64_t x, std::vector<uint64_t>& out) { out.push_back(x); },
      "QB");

  // PB lives under all_private; SB/QB under all_ghost: provably disjoint
  // through the disjoint top-level partition.
  EXPECT_FALSE(forest.partitions_may_alias(pb, qb));
  EXPECT_FALSE(forest.partitions_may_alias(pb, sb));
  EXPECT_TRUE(forest.partitions_may_alias(sb, qb));
  EXPECT_FALSE(forest.may_alias(forest.subregion(pb, 0),
                                forest.subregion(qb, 3)));
}

// The raw interval test. Distinct trees are distinct element name
// spaces, so equal coordinates never denote the same data.
bool raw_overlaps(const RegionForest& forest, RegionId a, RegionId b) {
  const RegionNode& na = forest.region(a);
  const RegionNode& nb = forest.region(b);
  return na.root == nb.root && na.ispace.points().overlaps(nb.ispace.points());
}

// Property: may_alias must never claim disjoint when the exact index
// spaces overlap (soundness); randomized trees.
class RegionTreeSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegionTreeSoundness, LcaTestIsSoundOnRandomTrees) {
  support::Rng rng(GetParam());
  RegionForest forest;
  RegionId root = forest.create_region(IndexSpace::dense(64), fs());
  std::vector<RegionId> regions{root};

  // Randomly grow the tree with equal (disjoint) and image (aliased)
  // partitions.
  for (int step = 0; step < 6; ++step) {
    RegionId target =
        regions[rng.next_below(regions.size())];
    if (forest.region(target).ispace.size() < 4) continue;
    PartitionId p;
    if (rng.next_bool()) {
      p = partition_equal(forest, target, 2 + rng.next_below(3));
    } else {
      const uint64_t shift = rng.next_below(8);
      PartitionId base = partition_equal(forest, target, 2);
      p = partition_image(
          forest, target, base,
          [&, shift](uint64_t x, std::vector<uint64_t>& out) {
            out.push_back(x + shift);
          });
    }
    for (RegionId sub : forest.partition(p).subregions) {
      regions.push_back(sub);
    }
  }

  for (RegionId r1 : regions) {
    for (RegionId r2 : regions) {
      if (raw_overlaps(forest, r1, r2)) {
        EXPECT_TRUE(forest.may_alias(r1, r2))
            << forest.region(r1).name << " vs " << forest.region(r2).name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionTreeSoundness,
                         ::testing::Range<uint64_t>(0, 30));

// Test-local reference for may_alias: compare the root-down (partition,
// color) paths of the two regions; at the first step where they differ,
// different partitions prove nothing and different colors of one
// partition are disjoint iff that partition is; no difference means one
// region is an ancestor of the other.
bool path_may_alias(const RegionForest& forest, RegionId a, RegionId b) {
  if (a == b) return true;
  if (forest.region(a).root != forest.region(b).root) return false;
  auto root_path = [&](RegionId r) {
    std::vector<std::pair<PartitionId, uint64_t>> path;
    for (RegionId cur = r; forest.region(cur).parent != kNoId;
         cur = forest.partition(forest.region(cur).parent).parent) {
      path.emplace_back(forest.region(cur).parent, forest.region(cur).color);
    }
    std::reverse(path.begin(), path.end());
    return path;
  };
  const auto pa = root_path(a);
  const auto pb = root_path(b);
  for (size_t k = 0; k < std::min(pa.size(), pb.size()); ++k) {
    if (pa[k].first != pb[k].first) return true;
    if (pa[k].second != pb[k].second) {
      return !forest.partition(pa[k].first).disjoint;
    }
  }
  return true;
}

// Property: may_alias (static fast paths + depth-lockstep walk) must
// agree with the root-path reference above on every pair, on randomized
// trees.
class RegionTreeMemoization : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegionTreeMemoization, CachedAgreesWithUncachedOnRandomTrees) {
  support::Rng rng(GetParam() * 31 + 7);
  RegionForest forest;
  std::vector<RegionId> regions;
  // Two roots so cross-tree pairs are exercised too.
  for (int t = 0; t < 2; ++t) {
    regions.push_back(forest.create_region(IndexSpace::dense(64), fs()));
  }
  for (int step = 0; step < 8; ++step) {
    RegionId target = regions[rng.next_below(regions.size())];
    if (forest.region(target).ispace.size() < 4) continue;
    PartitionId p;
    if (rng.next_bool()) {
      p = partition_equal(forest, target, 2 + rng.next_below(3));
    } else {
      const uint64_t shift = rng.next_below(8);
      PartitionId base = partition_equal(forest, target, 2);
      p = partition_image(
          forest, target, base,
          [&, shift](uint64_t x, std::vector<uint64_t>& out) {
            out.push_back(x + shift);
          });
    }
    for (RegionId sub : forest.partition(p).subregions) {
      regions.push_back(sub);
    }
  }

  for (RegionId r1 : regions) {
    for (RegionId r2 : regions) {
      EXPECT_EQ(forest.may_alias(r1, r2), path_may_alias(forest, r1, r2))
          << forest.region(r1).name << " vs " << forest.region(r2).name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionTreeMemoization,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace cr::rt
