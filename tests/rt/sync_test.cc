// Tests for the rendezvous behind phase barriers and dynamic collectives.
#include <gtest/gtest.h>

#include <vector>

#include "rt/barrier.h"
#include "rt/physical.h"
#include "sim/simulator.h"
#include "support/trace.h"

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
  std::vector<sim::Event> arrivals;
  for (uint32_t i = 0; i < 4; ++i) {
    const sim::Event arrival = sim.make_event();
    arrivals.push_back(arrival);
    sim.schedule_at(10 * (i + 1), [&sim, arrival] { sim.trigger(arrival); });
  }
  const sim::Event done = sim.make_event();
  rendezvous(sim, net, arrivals, done, "barrier", 0);
  sim.run();
  ASSERT_TRUE(sim.has_triggered(done));
  // Last arrival at 40, plus 2 * tree latency (2 levels * 100ns).
  EXPECT_EQ(sim.trigger_time(done), 40u + 2 * net.tree_latency(4));
}

TEST(PhaseBarrier, GenerationsAreIndependent) {
  // Two generations of one barrier are two rendezvous over the same
  // participants.
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  const sim::Event a0 = sim.make_event();
  const sim::Event b0 = sim.make_event();
  const sim::Event a1 = sim.make_event();
  const sim::Event b1 = sim.make_event();
  const sim::Event g0 = sim.make_event();
  const sim::Event g1 = sim.make_event();
  rendezvous(sim, net, std::vector<sim::Event>{a0, b0}, g0, "barrier", 0);
  rendezvous(sim, net, std::vector<sim::Event>{a1, b1}, g1, "barrier", 0);
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
  const sim::Event done = sim.make_event();
  rendezvous(sim, net, std::vector<sim::Event>{sim::Event()}, done,
             "barrier", 0);
  sim.run();
  ASSERT_TRUE(sim.has_triggered(done));
  EXPECT_EQ(sim.trigger_time(done), 0u);
}

TEST(DynamicCollective, FoldsAllContributionsDeterministically) {
  // Contributions arrive out of rank order; the fold runs once, after
  // the last of them.
  sim::Simulator sim;
  sim::Network net(sim, 4, flat_net());
  const double values[4] = {5.0, 2.0, 9.0, 7.0};
  std::vector<sim::Event> arrivals;
  for (uint32_t r = 0; r < 4; ++r) {
    const sim::Event arrival = sim.make_event();
    arrivals.push_back(arrival);
    sim.schedule_at(40 - 10 * r, [&sim, arrival] { sim.trigger(arrival); });
  }
  double result = 0;
  const sim::Event done = sim.make_event();
  rendezvous(sim, net, arrivals, done, "allreduce", 1, [&] {
    double acc = reduce_identity(ReduceOp::kMin);
    for (double v : values) acc = reduce_fold(ReduceOp::kMin, acc, v);
    result = acc;
  });
  sim.run();
  ASSERT_TRUE(sim.has_triggered(done));
  EXPECT_EQ(result, 2.0);
  EXPECT_EQ(sim.trigger_time(done), 40u + 2 * net.tree_latency(4));
}

TEST(DynamicCollective, SamplesValuesAtCompletionNotRegistration) {
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  double acc = 0.0;  // filled "by point tasks" during the run
  const sim::Event local_done = sim.make_event();
  double result = 0;
  const sim::Event done = sim.make_event();
  rendezvous(sim, net, std::vector<sim::Event>{local_done, sim::Event()},
             done, "allreduce", 1, [&] { result = acc + 1.0; });
  sim.schedule_at(50, [&] {
    acc = 41.0;
    sim.trigger(local_done);
  });
  sim.run();
  EXPECT_EQ(result, 42.0);
}

TEST(DynamicCollective, GenerationsIndependent) {
  // Two rounds wired up front each fold what their own gather sees.
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  double acc = 1.0;
  double r0 = 0, r1 = 0;
  const sim::Event e0 = sim.make_event();
  const sim::Event e1 = sim.make_event();
  rendezvous(sim, net, std::vector<sim::Event>{e0, sim::Event()},
             sim.make_event(), "allreduce", 1, [&] { r0 = 2 * acc; });
  rendezvous(sim, net, std::vector<sim::Event>{e1, sim::Event()},
             sim.make_event(), "allreduce", 1, [&] { r1 = 2 * acc; });
  sim.schedule_at(10, [&] { sim.trigger(e0); });
  sim.schedule_at(15, [&] { acc = 2.0; });
  sim.schedule_at(20, [&] { sim.trigger(e1); });
  sim.run();
  EXPECT_EQ(r0, 2.0);
  EXPECT_EQ(r1, 4.0);
}

TEST(Rendezvous, AtGatherRunsOnceAtTheGather) {
  sim::Simulator sim;
  sim::Network net(sim, 4, flat_net());
  const sim::Event a = sim.make_event();
  const sim::Event b = sim.make_event();
  const sim::Event done = sim.make_event();
  int runs = 0;
  rendezvous(sim, net, std::vector<sim::Event>{a, b}, done, "allreduce", 1,
             [&] {
               ++runs;
               EXPECT_EQ(sim.now(), 30u);  // the last arrival
               EXPECT_FALSE(sim.has_triggered(done));
             });
  sim.schedule_at(30, [&] { sim.trigger(a); });
  sim.schedule_at(20, [&] { sim.trigger(b); });
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.trigger_time(done), 30u + 2 * net.tree_latency(2));
}

TEST(Rendezvous, ReturnsTheArrivalsMerge) {
  sim::Simulator sim;
  sim::Network net(sim, 2, flat_net());
  const sim::Event a = sim.make_event();
  const sim::Event b = sim.make_event();
  const sim::Event gather = rendezvous(
      sim, net, std::vector<sim::Event>{a, b}, sim.make_event(), "barrier", 0);
  EXPECT_NE(gather.uid(), 0u);
  EXPECT_FALSE(sim.has_triggered(gather));
  sim.schedule_at(10, [&] { sim.trigger(a); });
  sim.schedule_at(25, [&] { sim.trigger(b); });
  sim.run();
  ASSERT_TRUE(sim.has_triggered(gather));
  EXPECT_EQ(sim.trigger_time(gather), 25u);
  // Arrivals that have all triggered merge to the no-event: the race
  // checker's anchor for a fold that waited on nothing.
  const sim::Event none = rendezvous(sim, net, std::vector<sim::Event>{a, b},
                                     sim.make_event(), "barrier", 0);
  EXPECT_EQ(none.uid(), 0u);
}

TEST(Rendezvous, TracesArrivalsSpanAndRelease) {
  sim::Simulator sim;
  support::Tracer tracer;
  sim.set_tracer(&tracer);
  sim::Network net(sim, 2, flat_net());
  const sim::Event a = sim.make_event();
  rendezvous(sim, net, std::vector<sim::Event>{a, sim::Event()},
             sim.make_event(), "allreduce", 1);
  sim.schedule_at(10, [&] { sim.trigger(a); });
  sim.run();
  const sim::Time release = 10 + 2 * net.tree_latency(2);
  ASSERT_EQ(tracer.spans().size(), 1u);
  const support::TraceSpan& span = tracer.spans()[0];
  EXPECT_EQ(span.pid, support::kRuntimePid);
  EXPECT_EQ(span.tid, 1u);
  EXPECT_EQ(span.name, "allreduce");
  EXPECT_EQ(span.category, support::TraceCategory::kSync);
  EXPECT_EQ(span.start, 10u);
  EXPECT_EQ(span.end, release);
  ASSERT_EQ(tracer.instants().size(), 3u);
  EXPECT_EQ(tracer.instants()[0].name, "allreduce arrive");
  EXPECT_EQ(tracer.instants()[0].time, 10u);
  EXPECT_EQ(tracer.instants()[1].time, 0u);  // the pre-triggered arrival
  EXPECT_EQ(tracer.instants()[2].name, "allreduce trigger");
  EXPECT_EQ(tracer.instants()[2].time, release);
}

}  // namespace
}  // namespace cr::rt
