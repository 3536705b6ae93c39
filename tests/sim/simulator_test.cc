#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace cr::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  Time end = sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(end, 30u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    sim.schedule_at(sim.now() + 9, [&] {
      EXPECT_EQ(sim.now(), 10u);
      ++fired;
    });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, NowAdvancesMonotonically) {
  Simulator sim;
  Time last = 0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(static_cast<Time>(i * 3 % 17), [&, i] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
    });
  }
  sim.run();
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

}  // namespace
}  // namespace cr::sim
