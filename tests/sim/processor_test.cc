#include "sim/processor.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.h"
#include "sim/simulator.h"

namespace cr::sim {
namespace {

TEST(Processor, SerializesWork) {
  Simulator sim;
  Processor p(sim, {0, 0});
  Event a = p.spawn(Event(), 100);
  Event b = p.spawn(Event(), 50);
  sim.run();
  EXPECT_EQ(sim.trigger_time(a), 100u);
  EXPECT_EQ(sim.trigger_time(b), 150u);  // queued behind a
  EXPECT_EQ(p.busy_time(), 150u);
}

TEST(Processor, WaitsForPrecondition) {
  Simulator sim;
  Processor p(sim, {0, 0});
  const Event gate = sim.make_event();
  Event done = p.spawn(gate, 10);
  sim.schedule_at(100, [&] { sim.trigger(gate); });
  sim.run();
  EXPECT_EQ(sim.trigger_time(done), 110u);
}

TEST(Processor, WorkRunsAtStartTime) {
  Simulator sim;
  Processor p(sim, {0, 0});
  Time work_time = 0;
  p.spawn(Event(), 30);
  p.spawn(Event(), 20, [&] { work_time = sim.now(); });
  sim.run();
  EXPECT_EQ(work_time, 30u);  // starts when first item finishes
}

TEST(Processor, IndependentItemsOverlapAcrossCores) {
  Simulator sim;
  Machine m(sim, {.nodes = 1, .cores_per_node = 2});
  Event a = m.proc(0, 0).spawn(Event(), 100);
  Event b = m.proc(0, 1).spawn(Event(), 100);
  sim.run();
  EXPECT_EQ(sim.trigger_time(a), 100u);
  EXPECT_EQ(sim.trigger_time(b), 100u);
  EXPECT_EQ(m.node_busy_time(0), 200u);
}

TEST(Processor, ReadyOrderIsFifo) {
  Simulator sim;
  Processor p(sim, {0, 0});
  const Event g1 = sim.make_event();
  const Event g2 = sim.make_event();
  std::vector<int> order;
  p.spawn(g1, 10, [&] { order.push_back(1); });
  p.spawn(g2, 10, [&] { order.push_back(2); });
  // g2 becomes ready first, so item 2 runs first.
  sim.schedule_at(5, [&] { sim.trigger(g2); });
  sim.schedule_at(6, [&] { sim.trigger(g1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Machine, ProcLookup) {
  Simulator sim;
  Machine m(sim, {.nodes = 3, .cores_per_node = 4});
  EXPECT_EQ(m.nodes(), 3u);
  EXPECT_EQ(m.cores_per_node(), 4u);
  EXPECT_EQ(m.proc(2, 3).id().node, 2u);
  EXPECT_EQ(m.proc(2, 3).id().core, 3u);
}

TEST(Processor, ZeroDurationCompletesAtReadyTime) {
  Simulator sim;
  Processor p(sim, {0, 0});
  const Event gate = sim.make_event();
  Event done = p.spawn(gate, 0);
  sim.schedule_at(7, [&] { sim.trigger(gate); });
  sim.run();
  EXPECT_EQ(sim.trigger_time(done), 7u);
}

TEST(Processor, NodePerfScalesDurations) {
  Simulator sim;
  NodePerf perf;
  perf.speed = 0.5;  // half-speed node: everything takes twice as long
  Processor p(sim, {0, 0}, &perf);
  Event a = p.spawn(Event(), 100);
  sim.run();
  EXPECT_EQ(sim.trigger_time(a), 200u);
  EXPECT_EQ(p.busy_time(), 200u);
}

TEST(Processor, SlowdownWindowAppliesByStartTime) {
  Simulator sim;
  NodePerf perf;
  perf.slowdowns.push_back({/*begin=*/0, /*end=*/100, /*factor=*/3.0});
  Processor p(sim, {0, 0}, &perf);
  Event a = p.spawn(Event(), 50);  // starts at 0, inside: 150 ns
  Event b = p.spawn(Event(), 50);  // starts at 150, outside: 50 ns
  sim.run();
  EXPECT_EQ(sim.trigger_time(a), 150u);
  EXPECT_EQ(sim.trigger_time(b), 200u);
}

TEST(Processor, ScaledWorkNeverRoundsToZero) {
  Simulator sim;
  NodePerf perf;
  perf.speed = 1000.0;  // 1 ns of work would round to 0: clamps to 1
  Processor p(sim, {0, 0}, &perf);
  Event a = p.spawn(Event(), 1);
  sim.run();
  EXPECT_EQ(sim.trigger_time(a), 1u);
}

TEST(Machine, NodeSpeedsReachProcessors) {
  Simulator sim;
  Machine m(sim, {.nodes = 2, .cores_per_node = 1, .node_speed = {1.0, 0.5}});
  EXPECT_EQ(m.node_speed(0), 1.0);
  EXPECT_EQ(m.node_speed(1), 0.5);
  Event fast = m.proc(0, 0).spawn(Event(), 100);
  Event slow = m.proc(1, 0).spawn(Event(), 100);
  sim.run();
  EXPECT_EQ(sim.trigger_time(fast), 100u);
  EXPECT_EQ(sim.trigger_time(slow), 200u);
}

}  // namespace
}  // namespace cr::sim
