#include "rt/physical.h"

#include <gtest/gtest.h>

#include <memory>

#include "rt/partition.h"

namespace cr::rt {
namespace {

struct Fixture {
  RegionForest forest;
  std::shared_ptr<FieldSpace> fs = std::make_shared<FieldSpace>();
  FieldId v, ptr;
  RegionId r;
  Fixture() {
    v = fs->add_field("v");
    ptr = fs->add_field("ptr", FieldType::kI64);
    r = forest.create_region(IndexSpace::dense(10), fs);
  }
};

TEST(ReduceOps, IdentityAndFold) {
  EXPECT_EQ(reduce_fold(ReduceOp::kSum, reduce_identity(ReduceOp::kSum), 5.0),
            5.0);
  EXPECT_EQ(reduce_fold(ReduceOp::kMin, reduce_identity(ReduceOp::kMin), 5.0),
            5.0);
  EXPECT_EQ(reduce_fold(ReduceOp::kMax, reduce_identity(ReduceOp::kMax), 5.0),
            5.0);
  EXPECT_EQ(reduce_fold(ReduceOp::kMin, 3.0, 5.0), 3.0);
  EXPECT_EQ(reduce_fold(ReduceOp::kMax, 3.0, 5.0), 5.0);
  EXPECT_EQ(reduce_fold(ReduceOp::kSum, 3.0, 5.0), 8.0);
  EXPECT_EQ(reduce_fold_i64(ReduceOp::kMin, reduce_identity_i64(ReduceOp::kMin),
                            7),
            7);
}

TEST(PhysicalInstance, ReadWriteRoundTrip) {
  Fixture f;
  InstanceManager mgr(f.forest);
  auto& inst = mgr.get(mgr.create(f.r, 0));
  inst.write_f64(f.v, 3, 2.5);
  inst.write_i64(f.ptr, 3, -7);
  EXPECT_EQ(inst.read_f64(f.v, 3), 2.5);
  EXPECT_EQ(inst.read_i64(f.ptr, 3), -7);
  EXPECT_EQ(inst.read_f64(f.v, 4), 0.0);  // zero-initialized
}

TEST(PhysicalInstance, SubregionInstanceAddressesByGlobalId) {
  Fixture f;
  PartitionId p = partition_equal(f.forest, f.r, 2);
  InstanceManager mgr(f.forest);
  auto& inst = mgr.get(mgr.create(f.forest.subregion(p, 1), 0));
  // Subregion [5,10): global id 7 maps to local offset 2 internally.
  inst.write_f64(f.v, 7, 9.0);
  EXPECT_EQ(inst.read_f64(f.v, 7), 9.0);
  EXPECT_EQ(inst.domain().size(), 5u);
}

TEST(PhysicalInstance, CopyFromMovesOnlyRequestedPoints) {
  Fixture f;
  InstanceManager mgr(f.forest);
  auto& a = mgr.get(mgr.create(f.r, 0));
  auto& b = mgr.get(mgr.create(f.r, 1));
  for (uint64_t i = 0; i < 10; ++i) a.write_f64(f.v, i, double(i));
  const support::IntervalSet points = support::IntervalSet::range(2, 5);
  b.scatter(a.gather(points, {f.v}), points, {f.v});
  EXPECT_EQ(b.read_f64(f.v, 2), 2.0);
  EXPECT_EQ(b.read_f64(f.v, 4), 4.0);
  EXPECT_EQ(b.read_f64(f.v, 5), 0.0);  // outside the copy set
}

TEST(PhysicalInstance, CopyMovesI64Fields) {
  Fixture f;
  InstanceManager mgr(f.forest);
  auto& a = mgr.get(mgr.create(f.r, 0));
  auto& b = mgr.get(mgr.create(f.r, 1));
  a.write_i64(f.ptr, 1, 42);
  const support::IntervalSet points = support::IntervalSet::range(0, 10);
  b.scatter(a.gather(points, {f.ptr}), points, {f.ptr});
  EXPECT_EQ(b.read_i64(f.ptr, 1), 42);
}

TEST(PhysicalInstance, FoldFromAppliesReduction) {
  Fixture f;
  InstanceManager mgr(f.forest);
  auto& a = mgr.get(mgr.create(f.r, 0));
  auto& b = mgr.get(mgr.create(f.r, 1));
  a.write_f64(f.v, 0, 3.0);
  b.write_f64(f.v, 0, 10.0);
  const support::IntervalSet points = support::IntervalSet::range(0, 1);
  b.scatter_fold(a.gather(points, {f.v}), points, {f.v}, ReduceOp::kSum);
  EXPECT_EQ(b.read_f64(f.v, 0), 13.0);
  b.scatter_fold(a.gather(points, {f.v}), points, {f.v}, ReduceOp::kMin);
  EXPECT_EQ(b.read_f64(f.v, 0), 3.0);
}

TEST(PhysicalInstance, FillSetsAllElements) {
  Fixture f;
  InstanceManager mgr(f.forest);
  auto& a = mgr.get(mgr.create(f.r, 0));
  a.fill_f64(f.v, 7.5);
  EXPECT_EQ(a.read_f64(f.v, 0), 7.5);
  EXPECT_EQ(a.read_f64(f.v, 9), 7.5);
}

TEST(PhysicalInstance, ReduceF64PointwiseFold) {
  Fixture f;
  InstanceManager mgr(f.forest);
  auto& a = mgr.get(mgr.create(f.r, 0));
  a.reduce_f64(f.v, 5, ReduceOp::kSum, 2.0);
  a.reduce_f64(f.v, 5, ReduceOp::kSum, 3.0);
  EXPECT_EQ(a.read_f64(f.v, 5), 5.0);
}

}  // namespace
}  // namespace cr::rt
