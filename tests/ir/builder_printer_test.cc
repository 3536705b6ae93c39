#include <gtest/gtest.h>

#include "ir/printer.h"
#include "ir/static_region_tree.h"
#include "ir/verify.h"
#include "testing/fig2.h"

namespace cr::ir {
namespace {

TEST(Builder, Fig2ProgramShape) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  const Program& p = fig.program;
  ASSERT_EQ(p.body.size(), 2u);
  EXPECT_EQ(p.body[0].kind, StmtKind::kIndexLaunch);
  EXPECT_EQ(p.body[1].kind, StmtKind::kForTime);
  EXPECT_EQ(p.body[1].trip_count, 3u);
  ASSERT_EQ(p.body[1].body.size(), 2u);
  EXPECT_EQ(p.body[1].body[0].task, fig.t_f);
  EXPECT_EQ(p.body[1].body[1].task, fig.t_g);
}

TEST(Builder, ArgumentFieldsComeFromDeclaration) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  const Stmt& tf = fig.program.body[1].body[0];
  ASSERT_EQ(tf.args.size(), 2u);
  EXPECT_EQ(tf.args[0].fields, std::vector<rt::FieldId>{fig.fb});
  EXPECT_EQ(tf.args[1].fields, std::vector<rt::FieldId>{fig.fa});
}

TEST(Builder, UnclosedLoopDies) {
  rt::RegionForest forest;
  ProgramBuilder b(forest, "bad");
  b.begin_for_time(3);
  EXPECT_DEATH((void)b.finish(), "unclosed");
}

TEST(Verify, Fig2IsValid) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  EXPECT_TRUE(verify(fig.program).empty());
}

TEST(Verify, CatchesAliasedWrite) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  // Write through the aliased image partition: illegal (paper §2.2).
  Program p = fig.program;
  p.body[1].body[1].args[1].privilege = rt::Privilege::kReadWrite;
  p.body[1].body[1].args[1].fields = {fig.fb};
  // Also patch the declaration so privilege strictness passes and the
  // aliasing check is what fires.
  p.tasks[fig.t_g].params[1].privilege = rt::Privilege::kReadWrite;
  auto errors = verify(p);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("aliased"), std::string::npos);
}

TEST(Verify, CatchesPrivilegeMismatch) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  Program p = fig.program;
  p.body[1].body[0].args[1].privilege = rt::Privilege::kReadWrite;
  auto errors = verify(p);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("privilege"), std::string::npos);
}

TEST(Verify, CatchesArityMismatch) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  Program p = fig.program;
  p.body[1].body[0].args.pop_back();
  EXPECT_FALSE(verify(p).empty());
}

TEST(Printer, Fig2GoldenText) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  const std::string text = to_string(fig.program);
  EXPECT_EQ(text,
            "program fig2\n"
            "launch TInit over 4: PA[i] writes{f0}\n"
            "for t in 0..3:\n"
            "  launch TF over 4: PB[i] reads writes{f0} PA[i] reads{f0}\n"
            "  launch TG over 4: PA[i] reads writes{f0} QB[i] reads{f0}\n");
}

TEST(Printer, DeclsIncludeTasksAndScalars) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  ir::Program p = fig.program;
  ProgramBuilder b2(forest, "x");
  const std::string text = to_string(p, /*with_decls=*/true);
  EXPECT_NE(text.find("task TF"), std::string::npos);
  EXPECT_NE(text.find("task TG"), std::string::npos);
}

TEST(StaticTree, HierarchicalPrecisionUsesTheTree) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  StaticRegionTree tree(forest);
  // Distinct subregions of a disjoint partition never overlap...
  EXPECT_FALSE(tree.partitions_may_alias(fig.pb, fig.pb));
  // ...those of an aliased partition may.
  EXPECT_TRUE(tree.partitions_may_alias(fig.qb, fig.qb));
  // Two partitions of one region may overlap.
  EXPECT_TRUE(tree.partitions_may_alias(fig.pb, fig.qb));
  // Partitions of different trees never do.
  EXPECT_FALSE(tree.partitions_may_alias(fig.pa, fig.pb));
}

TEST(StaticTree, FlatPrecisionAssumesAliasing) {
  rt::RegionForest forest;
  testing::Fig2 fig(forest, 24, 4, 3);
  StaticRegionTree flat(forest, /*hierarchical=*/false);
  // Flat reasoning still knows a disjoint partition's own structure...
  EXPECT_FALSE(flat.partitions_may_alias(fig.pb, fig.pb));
  // ...but assumes distinct partitions of one tree overlap.
  EXPECT_TRUE(flat.partitions_may_alias(fig.pb, fig.qb));
  EXPECT_FALSE(flat.partitions_may_alias(fig.pa, fig.pb));
}

}  // namespace
}  // namespace cr::ir
