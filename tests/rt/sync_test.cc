// Tests for phase barriers and dynamic collectives.
#include <gtest/gtest.h>

#include "rt/barrier.h"
#include "rt/collective.h"
#include "sim/simulator.h"

namespace cr::rt {
namespace {

sim::NetworkConfig flat_net() {
  sim::NetworkConfig c;
  c.latency_ns = 100;
  c.am_handler_ns = 0;
  c.bandwidth_gbps = 1.0;
  return c;
}

TEST(PhaseBarrier, ReleasesAfterAllArrivals) {
  sim::Simulator sim;
  sim::Network net(sim, 4, flat_net());
  PhaseBarrier pb(sim, net, 4);
  sim::Event done = pb.wait(0);
  for (uint32_t i = 0; i < 4; ++i) {
    const sim::Event arrival = sim.make_event();
    pb.arrive(0, arrival);
    sim.schedule_at(10 * (i + 1), [&sim, arrival] { sim.trigger(arrival); });
  }
  sim.run();
  ASSERT_TRUE(sim.has_triggered(done));
  // Last arrival at 40, plus 2 * tree latency (2 levels * 100ns).
  EXPECT_EQ(sim.trigger_time(done), 40u + 2 * net.tree_latency(4));
}

TEST(PhaseBarrier, GenerationsAreIndependent) {
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  PhaseBarrier pb(sim, net, 2);
  const sim::Event a0 = sim.make_event();
  const sim::Event b0 = sim.make_event();
  const sim::Event a1 = sim.make_event();
  const sim::Event b1 = sim.make_event();
  pb.arrive(0, a0);
  pb.arrive(1, a1);
  pb.arrive(0, b0);
  pb.arrive(1, b1);
  sim::Event g0 = pb.wait(0), g1 = pb.wait(1);
  sim.schedule_at(10, [&] { sim.trigger(a0); });
  sim.schedule_at(20, [&] { sim.trigger(b0); });
  // Generation 1 completes *before* generation 0 arrives fully — phases
  // don't serialize unless the program orders them.
  sim.schedule_at(1, [&] {
    sim.trigger(a1);
    sim.trigger(b1);
  });
  sim.run();
  EXPECT_TRUE(sim.has_triggered(g0) && sim.has_triggered(g1));
  EXPECT_LT(sim.trigger_time(g1), sim.trigger_time(g0));
}

TEST(PhaseBarrier, SingleParticipantCostsNothing) {
  sim::Simulator sim;
  sim::Network net(sim, 1, flat_net());
  PhaseBarrier pb(sim, net, 1);
  pb.arrive(0, sim::Event());
  sim::Event done = pb.wait(0);
  sim.run();
  EXPECT_EQ(sim.trigger_time(done), 0u);
}

TEST(PhaseBarrierDeath, OverSubscriptionAborts) {
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  PhaseBarrier pb(sim, net, 1);
  pb.arrive(0, sim::Event());
  EXPECT_DEATH(pb.arrive(0, sim::Event()), "");
}

TEST(DynamicCollective, FoldsAllContributionsDeterministically) {
  sim::Simulator sim;
  sim::Network net(sim, 4, flat_net());
  DynamicCollective dc(sim, net, 4, ReduceOp::kMin);
  double values[4] = {5.0, 2.0, 9.0, 7.0};
  for (uint32_t r = 0; r < 4; ++r) {
    dc.contribute(0, r, sim::Event(), [&values, r] { return values[r]; });
  }
  sim::Event done = dc.result_event(0);
  sim.run();
  ASSERT_TRUE(sim.has_triggered(done));
  EXPECT_EQ(dc.result(0), 2.0);
  EXPECT_EQ(sim.trigger_time(done), 2 * net.tree_latency(4));
}

TEST(DynamicCollective, SamplesValuesAtCompletionNotRegistration) {
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  DynamicCollective dc(sim, net, 2, ReduceOp::kSum);
  double acc = 0.0;  // filled "by point tasks" during the run
  const sim::Event local_done = sim.make_event();
  dc.contribute(0, 0, local_done, [&acc] { return acc; });
  dc.contribute(0, 1, sim::Event(), [] { return 1.0; });
  sim.schedule_at(50, [&] {
    acc = 41.0;
    sim.trigger(local_done);
  });
  sim.run();
  EXPECT_EQ(dc.result(0), 42.0);
}

TEST(DynamicCollective, GenerationsIndependent) {
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  DynamicCollective dc(sim, net, 2, ReduceOp::kSum);
  for (uint32_t r = 0; r < 2; ++r) {
    dc.contribute(0, r, sim::Event(), [] { return 1.0; });
    dc.contribute(1, r, sim::Event(), [] { return 2.0; });
  }
  sim.run();
  EXPECT_EQ(dc.result(0), 2.0);
  EXPECT_EQ(dc.result(1), 4.0);
}

TEST(DynamicCollectiveDeath, ResultBeforeCompletionAborts) {
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  DynamicCollective dc(sim, net, 2, ReduceOp::kSum);
  dc.contribute(0, 0, sim::Event(), [] { return 1.0; });
  EXPECT_DEATH((void)dc.result(0), "before completion");
}

}  // namespace
}  // namespace cr::rt
