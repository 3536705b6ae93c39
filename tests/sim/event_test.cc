#include "sim/event.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/processor.h"
#include "sim/simulator.h"
#include "support/trace.h"

namespace cr::sim {
namespace {

TEST(Event, DefaultEventIsTriggered) {
  Simulator sim;
  Event e;
  EXPECT_TRUE(sim.has_triggered(e));
  EXPECT_EQ(sim.trigger_time(e), 0u);
  EXPECT_EQ(e.uid(), 0u);
  bool ran = false;
  sim.subscribe(e, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(UserEvent, TriggerRunsWaitersAtNow) {
  Simulator sim;
  const Event ue = sim.make_event();
  Time seen = 0;
  bool ran = false;
  sim.subscribe(ue, [&] {
    ran = true;
    seen = sim.now();
  });
  EXPECT_FALSE(ran);
  sim.schedule_at(42, [&] { sim.trigger(ue); });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(seen, 42u);
  EXPECT_TRUE(sim.has_triggered(ue));
  EXPECT_EQ(sim.trigger_time(ue), 42u);
}

TEST(UserEvent, SubscribeAfterTriggerRunsImmediately) {
  Simulator sim;
  const Event ue = sim.make_event();
  sim.trigger(ue);
  bool ran = false;
  sim.subscribe(ue, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(Event, IdsFollowCreationOrder) {
  Simulator sim;
  const Event a = sim.make_event();
  const Event b = sim.make_event();
  const Event m = sim.merge({a, b});
  EXPECT_EQ(a.uid(), 1u);
  EXPECT_EQ(b.uid(), 2u);
  EXPECT_EQ(m.uid(), 3u);
  // An already-complete merge allocates nothing.
  EXPECT_EQ(sim.merge({Event(), Event()}), Event());
  EXPECT_EQ(sim.make_event().uid(), 4u);
}

TEST(Event, MergeWaitsForAll) {
  Simulator sim;
  const Event a = sim.make_event();
  const Event b = sim.make_event();
  const Event c = sim.make_event();
  const Event m = sim.merge({a, b, c});
  Time seen = 0;
  sim.subscribe(m, [&] { seen = sim.now(); });

  sim.schedule_at(10, [&] { sim.trigger(b); });
  sim.schedule_at(30, [&] { sim.trigger(a); });
  sim.schedule_at(20, [&] { sim.trigger(c); });
  sim.run();
  EXPECT_TRUE(sim.has_triggered(m));
  EXPECT_EQ(seen, 30u);  // max of trigger times
}

TEST(Event, MergeOfTriggeredIsTriggered) {
  Simulator sim;
  const Event m = sim.merge({Event(), Event()});
  EXPECT_TRUE(sim.has_triggered(m));
}

TEST(Event, MergeOfEmptyListIsTriggered) {
  Simulator sim;
  EXPECT_TRUE(sim.has_triggered(sim.merge(std::vector<Event>{})));
}

TEST(Event, MergeMixedTriggeredAndPending) {
  Simulator sim;
  const Event a = sim.make_event();
  const Event m = sim.merge({Event(), a});
  EXPECT_FALSE(sim.has_triggered(m));
  sim.schedule_at(5, [&] { sim.trigger(a); });
  sim.run();
  EXPECT_TRUE(sim.has_triggered(m));
  EXPECT_EQ(sim.trigger_time(m), 5u);
}

// Waiters run in subscription order; a waiter that triggers another
// event runs that event's whole waiter list before the next waiter of
// the outer event (depth first).
TEST(Event, WaitersRunFifoThroughNestedCascades) {
  Simulator sim;
  const Event a = sim.make_event();
  const Event b = sim.make_event();
  const Event c = sim.make_event();
  std::vector<std::string> order;
  sim.subscribe(a, [&] { order.push_back("a1"); });
  sim.trigger_when(b, a);  // typed continuation, second in a's list
  sim.subscribe(a, [&] { order.push_back("a3"); });
  sim.subscribe(b, [&] { order.push_back("b1"); });
  sim.trigger_when(c, b, [&] { order.push_back("b2 work"); });
  sim.subscribe(b, [&] { order.push_back("b3"); });
  sim.subscribe(c, [&] { order.push_back("c1"); });
  sim.schedule_at(7, [&] { sim.trigger(a); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "b2 work", "c1",
                                             "b3", "a3"}));
  EXPECT_EQ(sim.trigger_time(c), 7u);  // the cascade stays at now()
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Event, MergeWithDuplicateInputs) {
  Simulator sim;
  const Event a = sim.make_event();
  const Event b = sim.make_event();
  // `a` twice: both of its waiters count down in a's one cascade.
  const Event m = sim.merge({a, a, b});
  sim.schedule_at(10, [&] { sim.trigger(a); });
  sim.schedule_at(20, [&] {
    EXPECT_FALSE(sim.has_triggered(m));
    sim.trigger(b);
  });
  sim.run();
  EXPECT_EQ(sim.trigger_time(m), 20u);

  // Duplicates of the one pending input: the merge completes with it.
  Simulator sim2;
  const Event c = sim2.make_event();
  const Event m2 = sim2.merge({c, Event(), c});
  sim2.schedule_at(3, [&] { sim2.trigger(c); });
  sim2.run();
  EXPECT_EQ(sim2.trigger_time(m2), 3u);
}

TEST(Event, MergeOfTriggeredAndPendingInputs) {
  Simulator sim;
  const Event early = sim.make_event();
  const Event late = sim.make_event();
  sim.schedule_at(4, [&] {
    sim.trigger(early);
    // Wired during the drain: `early` already fired, only `late` counts.
    const Event m = sim.merge({early, late, early});
    sim.subscribe(m, [&, m] { EXPECT_EQ(sim.trigger_time(m), 9u); });
  });
  sim.schedule_at(9, [&] { sim.trigger(late); });
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u);  // the merge adds no entry
}

// The remote merge resolves its critical predecessor by trigger time,
// latest wins and ties keep input order, whatever order the inputs fire
// in. It shows on the trace's critical path.
TEST(Event, MergeRemoteAliasesLatestInputFirstOnTies) {
  Simulator sim;
  support::Tracer tracer;
  sim.set_tracer(&tracer);
  Processor p0(sim, {0, 0}), p1(sim, {0, 1}), p2(sim, {0, 2}),
      p3(sim, {0, 3});
  const Event gate = sim.make_event();
  // `tie` is picked up later than `second` but ends at the same time.
  const Event first = p0.spawn(Event(), 10, nullptr, {{}, "first"});
  const Event second = p1.spawn(Event(), 30, nullptr, {{}, "second"});
  const Event tie = p2.spawn(gate, 10, nullptr, {{}, "tie"});
  const Event m = sim.merge_remote(std::vector<Event>{first, second, tie});
  p3.spawn(m, 5, nullptr, {{}, "consumer"});
  sim.schedule_at(20, [&] { sim.trigger(gate); });
  sim.run();
  EXPECT_EQ(sim.trigger_time(m), 30u);
  const support::TraceSummary summary = tracer.summarize(sim.now());
  std::vector<std::string> path;
  for (const auto& [name, ns] : summary.cp_top) path.push_back(name);
  EXPECT_NE(std::find(path.begin(), path.end(), "second"), path.end());
  EXPECT_EQ(std::find(path.begin(), path.end(), "tie"), path.end());
  EXPECT_NE(std::find(path.begin(), path.end(), "consumer"), path.end());
}

TEST(Event, MergeRemoteCompletesInItsOwnEntry) {
  Simulator sim;
  const Event a = sim.make_event();
  const Event b = sim.make_event();
  const Event m = sim.merge_remote(std::vector<Event>{a, Event(), b});
  sim.schedule_at(8, [&] { sim.trigger(b); });
  sim.schedule_at(12, [&] {
    sim.trigger(a);
    EXPECT_FALSE(sim.has_triggered(m));  // deferred, not in the cascade
  });
  sim.run();
  EXPECT_EQ(sim.trigger_time(m), 12u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Event, TriggerAfterDelaysFromTheCause) {
  Simulator sim;
  const Event cause = sim.make_event();
  const Event target = sim.make_event();
  int folds = 0;
  sim.trigger_after(target, cause, 100, [&] {
    ++folds;
    EXPECT_EQ(sim.now(), 5u);  // the work runs at the cause
  });
  sim.schedule_at(5, [&] { sim.trigger(cause); });
  sim.run();
  EXPECT_EQ(folds, 1);
  EXPECT_EQ(sim.trigger_time(target), 105u);
}

// An event's first waiter lives in its slot and later ones in the
// waiter list. Attaches interleaved across two events still run in
// subscription order per event, for one waiter (inline only), two (one
// listed) and five.
TEST(Event, InterleavedAttachesKeepFifoOverInlineAndListedWaiters) {
  for (int n : {1, 2, 5}) {
    Simulator sim;
    const Event a = sim.make_event();
    const Event b = sim.make_event();
    std::vector<int> order;
    for (int k = 0; k < n; ++k) {
      sim.subscribe(a, [&order, k] { order.push_back(k); });
      sim.subscribe(b, [&order, k] { order.push_back(100 + k); });
    }
    sim.schedule_at(1, [&] {
      sim.trigger(b);
      sim.trigger(a);
    });
    sim.run();
    std::vector<int> want;
    for (int k = 0; k < n; ++k) want.push_back(100 + k);
    for (int k = 0; k < n; ++k) want.push_back(k);
    EXPECT_EQ(order, want) << n << " waiters per event";
  }
}

// A waiter that attaches to the event whose cascade is running sees it
// triggered: the new waiter runs at once, inside the attaching waiter,
// whether that one was the inline waiter or a listed one.
TEST(Event, AttachDuringOwnCascadeRunsAtOnce) {
  Simulator sim;
  const Event a = sim.make_event();
  std::vector<std::string> order;
  sim.subscribe(a, [&] {
    order.push_back("inline");
    sim.subscribe(a, [&] { order.push_back("from inline"); });
    order.push_back("inline done");
  });
  sim.subscribe(a, [&] {
    order.push_back("listed");
    sim.subscribe(a, [&] { order.push_back("from listed"); });
  });
  sim.subscribe(a, [&] { order.push_back("last"); });
  sim.schedule_at(3, [&] { sim.trigger(a); });
  sim.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"inline", "from inline", "inline done",
                                      "listed", "from listed", "last"}));
}

// A merge input whose waiters span the inline slot and the list counts
// the merge down once per attach: `a` holds the merge inline and twice
// in its list, so only `b` completes it.
TEST(Event, MergeCountsDownOncePerAttachOverInlineAndListedWaiters) {
  Simulator sim;
  const Event a = sim.make_event();
  const Event b = sim.make_event();
  const Event m = sim.merge({a, b, a, a});
  int fired = 0;
  sim.subscribe(m, [&] { ++fired; });
  sim.schedule_at(10, [&] {
    sim.trigger(a);
    EXPECT_FALSE(sim.has_triggered(m));
  });
  sim.schedule_at(20, [&] { sim.trigger(b); });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.trigger_time(m), 20u);

  // The same with a foreign inline waiter: all three attaches are listed.
  Simulator sim2;
  const Event c = sim2.make_event();
  int before = 0;
  sim2.subscribe(c, [&] { ++before; });
  const Event m2 = sim2.merge({c, c, c});
  int fired2 = 0;
  sim2.subscribe(m2, [&] { ++fired2; });
  sim2.schedule_at(4, [&] { sim2.trigger(c); });
  sim2.run();
  EXPECT_EQ(before, 1);
  EXPECT_EQ(fired2, 1);
  EXPECT_EQ(sim2.trigger_time(m2), 4u);
}

TEST(EventDeath, TriggerTwiceAborts) {
  Simulator sim;
  const Event a = sim.make_event();
  sim.trigger(a);
  EXPECT_DEATH(sim.trigger(a), "event triggered twice");
  // With an inline and a listed waiter, and from inside its own cascade.
  const Event b = sim.make_event();
  sim.subscribe(b, [] {});
  sim.subscribe(b, [] {});
  sim.trigger(b);
  EXPECT_DEATH(sim.trigger(b), "event triggered twice");
  const Event c = sim.make_event();
  sim.subscribe(c, [&] { sim.trigger(c); });
  EXPECT_DEATH(sim.trigger(c), "event triggered twice");
}

TEST(EventDeath, IdSpaceOverflowAborts) {
  // make_event() checks each id against the 32-bit id space; the check
  // itself is probed at the boundary instead of allocating 2^32 slots.
  EXPECT_EQ(Simulator::kMaxEvents, uint64_t{UINT32_MAX} - 1);
  Simulator::check_id_space(Simulator::kMaxEvents);  // the last id fits
  EXPECT_DEATH(Simulator::check_id_space(Simulator::kMaxEvents + 1),
               "event id space exhausted.*fewer nodes or time steps");
}

}  // namespace
}  // namespace cr::sim
