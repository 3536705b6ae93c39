// Tests for the copy engine and the default mapper.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rt/copy.h"
#include "rt/mapper.h"
#include "rt/partition.h"
#include "rt/runtime.h"

namespace cr::rt {
namespace {

struct Fixture {
  Runtime rt;
  std::shared_ptr<FieldSpace> fs = std::make_shared<FieldSpace>();
  FieldId v;
  RegionId r;
  Fixture()
      : rt(RuntimeConfig{.machine = {.nodes = 4, .cores_per_node = 2},
                         .network = {.latency_ns = 100,
                                     .bandwidth_gbps = 1.0,
                                     .mem_bandwidth_gbps = 10.0,
                                     .am_handler_ns = 0},
                         .real_data = true}) {
    v = fs->add_field("v");
    r = rt.forest().create_region(IndexSpace::dense(100), fs);
  }
};

TEST(CopyEngine, MovesRealDataOnDelivery) {
  Fixture f;
  auto* mgr = f.rt.instances();
  InstanceId src = mgr->create(f.r, 0);
  InstanceId dst = mgr->create(f.r, 1);
  mgr->get(src).write_f64(f.v, 7, 3.5);

  // The request is a temporary; its points and fields are referenced
  // and must outlive delivery, which happens during run() below.
  const support::IntervalSet points = support::IntervalSet::range(0, 10);
  const std::vector<FieldId> fields{f.v};
  sim::Event done = f.rt.copies().issue({.src_region = f.r,
                                         .dst_region = f.r,
                                         .src_node = 0,
                                         .dst_node = 1,
                                         .src_inst = src,
                                         .dst_inst = dst,
                                         .points = points,
                                         .fields = fields},
                                        sim::Event());
  EXPECT_EQ(mgr->get(dst).read_f64(f.v, 7), 0.0);  // not yet delivered
  f.rt.sim().run();
  EXPECT_TRUE(f.rt.sim().has_triggered(done));
  EXPECT_EQ(mgr->get(dst).read_f64(f.v, 7), 3.5);
  // 10 elements * 8 bytes at 1 B/ns + 100 ns latency.
  EXPECT_EQ(f.rt.sim().trigger_time(done), 180u);
  EXPECT_EQ(f.rt.copies().bytes_moved(), 80u);
}

TEST(CopyEngineDeath, EmptyCopyAborts) {
  // The engine skips and counts empty pairs itself, so an empty request
  // reaching the copy engine is a caller bug.
  Fixture f;
  const support::IntervalSet points;
  const std::vector<FieldId> fields{f.v};
  const CopyRequest req{.src_region = f.r,
                        .dst_region = f.r,
                        .points = points,
                        .fields = fields};
  EXPECT_DEATH((void)f.rt.copies().issue(req, sim::Event()),
               "issue_one_copy");
}

TEST(CopyEngine, ReductionCopyFolds) {
  Fixture f;
  auto* mgr = f.rt.instances();
  InstanceId src = mgr->create(f.r, 0);
  InstanceId dst = mgr->create(f.r, 0);
  mgr->get(src).write_f64(f.v, 0, 4.0);
  mgr->get(dst).write_f64(f.v, 0, 10.0);
  const support::IntervalSet points = support::IntervalSet::range(0, 1);
  const std::vector<FieldId> fields{f.v};
  const CopyRequest req{.src_region = f.r,
                        .dst_region = f.r,
                        .src_inst = src,
                        .dst_inst = dst,
                        .points = points,
                        .fields = fields,
                        .reduction = true,
                        .redop = ReduceOp::kSum};
  f.rt.copies().issue(req, sim::Event());
  f.rt.sim().run();
  EXPECT_EQ(mgr->get(dst).read_f64(f.v, 0), 14.0);
}

TEST(CopyEngine, VirtualBytesScaleCost) {
  Fixture f;
  auto wide = std::make_shared<FieldSpace>();
  FieldId fw = wide->add_field("w", FieldType::kF64, /*virtual_bytes=*/40);
  RegionId r2 = f.rt.forest().create_region(IndexSpace::dense(10), wide);
  const support::IntervalSet points = support::IntervalSet::range(0, 10);
  const std::vector<FieldId> fields{fw};
  const CopyRequest req{.src_region = r2,
                        .dst_region = r2,
                        .src_node = 0,
                        .dst_node = 1,
                        .src_inst = f.rt.instances()->create(r2, 0),
                        .dst_inst = f.rt.instances()->create(r2, 1),
                        .points = points,
                        .fields = fields};
  f.rt.copies().issue(req, sim::Event());
  f.rt.sim().run();
  EXPECT_EQ(f.rt.copies().bytes_moved(), 400u);
}

TEST(Mapper, BlockDistributionOfColors) {
  Fixture f;  // 4 nodes
  const Mapper m(f.rt.machine(), {});
  // 8 colors over 4 nodes: 2 each.
  EXPECT_EQ(m.place(std::vector<uint64_t>(8, 1)),
            (std::vector<uint32_t>{0, 0, 1, 1, 2, 2, 3, 3}));
}

TEST(Mapper, BlockDistributionWithRemainder) {
  Fixture f;
  const Mapper m(f.rt.machine(), {});
  // 6 colors over 4 nodes: sizes 2,2,1,1.
  EXPECT_EQ(m.place(std::vector<uint64_t>(6, 1)),
            (std::vector<uint32_t>{0, 0, 1, 1, 2, 3}));
}

TEST(Mapper, ShardPerNode) {
  Fixture f;
  const Mapper m(f.rt.machine(), {});
  for (uint32_t s = 0; s < 4; ++s) EXPECT_EQ(m.shard_node(s, 4), s);
}

TEST(Mapper, ComputeProcsAvoidReservedCore) {
  Fixture f;  // 2 cores/node, 1 reserved
  const Mapper m(f.rt.machine(), {});
  EXPECT_EQ(m.compute_cores_per_node(), 1u);
  for (uint64_t seq = 0; seq < 5; ++seq) {
    EXPECT_EQ(m.compute_proc(2, seq).core, 1u);
    EXPECT_EQ(m.compute_proc(2, seq).node, 2u);
  }
  EXPECT_EQ(m.control_proc(3).core, 0u);
}

// Regression: reserving the only core used to leave no compute core and
// divide by zero in compute_proc's round-robin. A 1-core node runs its
// control thread and its tasks on core 0.
TEST(Mapper, SingleCoreNodeClampsReservation) {
  sim::Simulator sim;
  sim::Machine machine(sim, {.nodes = 2, .cores_per_node = 1});
  const Mapper m(machine, {});
  EXPECT_EQ(m.compute_cores_per_node(), 1u);
  for (uint64_t seq = 0; seq < 3; ++seq) {
    EXPECT_EQ(m.compute_proc(1, seq).core, 0u);  // no div/mod by zero
    EXPECT_EQ(m.compute_proc(1, seq).node, 1u);
  }
  EXPECT_EQ(m.control_proc(0).core, 0u);
}

TEST(Mapper, FewerColorsThanNodes) {
  Fixture f;
  const Mapper m(f.rt.machine(), {});
  // 2 colors over 4 nodes: one per node on the first two nodes.
  EXPECT_EQ(m.place(std::vector<uint64_t>(2, 1)),
            (std::vector<uint32_t>{0, 1}));
}

// The per-color rule block_range must agree with: ceil(colors/parts)
// per part, the remainder on the leading parts.
uint32_t block_owner(uint64_t c, uint64_t colors, uint32_t parts) {
  const uint64_t base = colors / parts;
  const uint64_t rem = colors % parts;
  const uint64_t cut = rem * (base + 1);
  // With fewer colors than parts, base == 0 and every color is below
  // the cut: color c is part c's only color.
  if (c < cut) return static_cast<uint32_t>(c / (base + 1));
  return static_cast<uint32_t>(rem + (c - cut) / base);
}

// The engine issues a shard's copies from the slice of each pair table
// that block_range bounds, so block_range must be exactly the colors
// block_owner assigns to that part, and the ranges must tile the colors
// in part order. colors < parts leaves the trailing parts empty.
TEST(BlockDistribution, RangeIsExactlyTheOwnedColors) {
  for (uint64_t colors = 0; colors <= 70; ++colors) {
    for (uint32_t parts = 1; parts <= 17; ++parts) {
      uint64_t next = 0;
      for (uint32_t p = 0; p < parts; ++p) {
        const BlockRange r = block_range(colors, parts, p);
        ASSERT_EQ(r.begin, next) << colors << " colors, part " << p;
        ASSERT_LE(r.begin, r.end);
        for (uint64_t c = r.begin; c < r.end; ++c) {
          ASSERT_EQ(block_owner(c, colors, parts), p)
              << "color " << c << " of " << colors << ", " << parts
              << " parts";
        }
        if (p >= colors) {
          EXPECT_EQ(r.begin, r.end);
        }
        next = r.end;
      }
      EXPECT_EQ(next, colors) << colors << " colors, " << parts << " parts";
    }
  }
}

}  // namespace
}  // namespace cr::rt
