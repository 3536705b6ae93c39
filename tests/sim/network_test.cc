#include "sim/network.h"

#include <gtest/gtest.h>

#include "sim/processor.h"
#include "sim/simulator.h"

namespace cr::sim {
namespace {

NetworkConfig test_config() {
  NetworkConfig c;
  c.latency_ns = 1000;
  c.bandwidth_gbps = 1.0;      // 1 B/ns: easy arithmetic
  c.mem_bandwidth_gbps = 10.0;
  c.am_handler_ns = 0;
  return c;
}

TEST(Network, DeliveryTimeIsLatencyPlusSerialization) {
  Simulator sim;
  Network net(sim, 2, test_config());
  Event d = net.send(0, 1, 500, Event());
  sim.run();
  EXPECT_EQ(sim.trigger_time(d), 1500u);  // 500 B / 1 B/ns + 1000 ns
}

TEST(Network, NicSerializesConcurrentSends) {
  Simulator sim;
  Network net(sim, 3, test_config());
  Event d1 = net.send(0, 1, 1000, Event());
  Event d2 = net.send(0, 2, 1000, Event());
  sim.run();
  EXPECT_EQ(sim.trigger_time(d1), 2000u);  // injected [0,1000), +latency
  EXPECT_EQ(sim.trigger_time(d2), 3000u);  // injected [1000,2000), +latency
}

TEST(Network, DifferentSourcesDoNotSerialize) {
  Simulator sim;
  Network net(sim, 3, test_config());
  Event d1 = net.send(0, 2, 1000, Event());
  Event d2 = net.send(1, 2, 1000, Event());
  sim.run();
  EXPECT_EQ(sim.trigger_time(d1), 2000u);
  EXPECT_EQ(sim.trigger_time(d2), 2000u);
}

TEST(Network, LocalSendUsesMemoryBandwidthNoLatency) {
  Simulator sim;
  Network net(sim, 2, test_config());
  Event d = net.send(1, 1, 1000, Event());
  sim.run();
  EXPECT_EQ(sim.trigger_time(d), 100u);  // 1000 B / 10 B/ns
}

TEST(Network, PreconditionDelaysInjection) {
  Simulator sim;
  Network net(sim, 2, test_config());
  const Event gate = sim.make_event();
  Event d = net.send(0, 1, 100, gate);
  sim.schedule_at(5000, [&] { sim.trigger(gate); });
  sim.run();
  EXPECT_EQ(sim.trigger_time(d), 6100u);
}

TEST(Network, OnDeliveryRunsAtDeliveryTime) {
  Simulator sim;
  Network net(sim, 2, test_config());
  Time seen = 0;
  net.send(0, 1, 0, Event(), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 1000u);
}

TEST(Network, CountsTraffic) {
  Simulator sim;
  Network net(sim, 2, test_config());
  net.send(0, 1, 10, Event());
  net.send(1, 0, 20, Event());
  sim.run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 30u);
}

TEST(Network, TreeLatencyGrowsLogarithmically) {
  Simulator sim;
  Network net(sim, 2, test_config());
  EXPECT_EQ(net.tree_latency(1), 0u);
  const Time l2 = net.tree_latency(2);
  const Time l64 = net.tree_latency(64);
  const Time l1024 = net.tree_latency(1024);
  EXPECT_GT(l2, 0u);
  EXPECT_EQ(l64, 6 * l2);
  EXPECT_EQ(l1024, 10 * l2);
}

TEST(Network, TreeLatencyExactAtPowersOfFanin) {
  // Regression: the old float-log level count (ceil(log(p)/log(f)))
  // rounds exact powers up on common libm implementations —
  // log(125)/log(5) == 3.0000000000000004 — charging a spurious extra
  // tree level.
  Simulator sim;
  Network net(sim, 2, test_config());
  const Time l1 = net.tree_latency(2);  // one level
  EXPECT_EQ(net.tree_latency(8, 2), 3 * l1);
  EXPECT_EQ(net.tree_latency(125, 5), 3 * l1);
  EXPECT_EQ(net.tree_latency(216, 6), 3 * l1);
  EXPECT_EQ(net.tree_latency(4096, 8), 4 * l1);
  // One past a power needs an extra level.
  EXPECT_EQ(net.tree_latency(126, 5), 4 * l1);
  EXPECT_EQ(net.tree_latency(9, 2), 4 * l1);
}

TEST(Network, SubNanosecondSerializationRoundsUp) {
  // Regression: bytes/bandwidth used to truncate, so payloads smaller
  // than the per-ns bandwidth moved in zero virtual time.
  Simulator sim;
  Network net(sim, 2, test_config());
  EXPECT_EQ(net.local_copy_time(1), 1u);    // 0.1 ns at 10 B/ns -> 1 ns
  EXPECT_EQ(net.local_copy_time(25), 3u);   // ceil(2.5)
  EXPECT_EQ(net.local_copy_time(0), 0u);    // empty stays free
  EXPECT_EQ(net.transfer_time(1), 1001u);   // latency + ceil(1/1)
  Event d = net.send(1, 1, 1, Event());     // local 1 B at 10 B/ns
  sim.run();
  EXPECT_EQ(sim.trigger_time(d), 1u);
}

TEST(Network, SubNanosecondRemoteSendsStillOccupyTheNic) {
  NetworkConfig c = test_config();
  c.bandwidth_gbps = 16.0;  // 16 B/ns: an 8 B payload is 0.5 ns
  Simulator sim;
  Network net(sim, 2, c);
  Event d1 = net.send(0, 1, 8, Event());
  Event d2 = net.send(0, 1, 8, Event());
  sim.run();
  EXPECT_EQ(sim.trigger_time(d1), 1001u);  // inject [0,1) + latency
  EXPECT_EQ(sim.trigger_time(d2), 1002u);  // queued behind the first
}

// Jitter hashes the delivery event's id, so the ids a fixed wiring
// sequence allocates (spawns, sends, merges, remote merges) are part of
// the virtual timeline. These trigger times are pinned: a change to id
// allocation shows up here as a different timeline.
TEST(Network, HandlerJitterPinnedForFixedSendSequence) {
  Simulator sim;
  NetworkConfig c = test_config();
  c.am_jitter_ns = 500;
  c.jitter_seed = 3;
  Network net(sim, 3, c);
  Processor proc(sim, {0, 0});
  const Event a = proc.spawn(Event(), 10);
  const Event d1 = net.send(0, 1, 100, a);
  const Event m = sim.merge({a, d1});
  const Event d2 = net.send(1, 2, 50, m);
  const Event d3 = net.send(2, 0, 0, Event());
  const Event r = sim.merge_remote(std::vector<Event>{d2, d3});
  const Event d4 = net.send(0, 2, 10, r);
  sim.run();
  const std::vector<Event> events = {a, d1, m, d2, d3, r, d4};
  const std::vector<Time> pinned = {10, 1491, 1491, 2606, 1366, 2606, 3971};
  for (size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].uid(), k + 1);
    EXPECT_EQ(sim.trigger_time(events[k]), pinned[k]) << "event " << k + 1;
  }
  EXPECT_EQ(sim.events_processed(), 6u);
}

TEST(Network, HandlerJitterIsDeterministicAndBounded) {
  Simulator sim;
  NetworkConfig c = test_config();
  c.am_jitter_ns = 200;
  c.jitter_seed = 7;
  Network net(sim, 2, c);
  Network net2(sim, 2, c);
  for (uint64_t uid = 0; uid < 64; ++uid) {
    const Time j = net.handler_jitter(uid);
    EXPECT_LE(j, 200u);
    EXPECT_EQ(j, net2.handler_jitter(uid));  // pure function of (seed, uid)
  }
  Network off(sim, 2, test_config());
  EXPECT_EQ(off.handler_jitter(5), 0u);  // disabled by default
}

TEST(Network, JitterOnlyAddsDelay) {
  NetworkConfig c = test_config();
  c.am_jitter_ns = 200;
  Simulator sim;
  Network net(sim, 2, c);
  Event d = net.send(0, 1, 500, Event());
  sim.run();
  // Jitter is strictly additive on top of the analytic arrival.
  EXPECT_GE(sim.trigger_time(d), 1500u);
  EXPECT_LE(sim.trigger_time(d), 1700u);
}

}  // namespace
}  // namespace cr::sim
