// Active-message network model (the GASNet substitute).
//
// A message from node A to node B becomes available for injection when
// its precondition triggers; it then occupies A's NIC for bytes/bandwidth
// (injection serialization — concurrent messages from one node queue up),
// and is delivered `latency + bytes/bandwidth` after injection starts.
// Intra-node transfers skip the NIC and use memory bandwidth.
//
// Tree-based collective helpers (barrier-style notification fan-in/out and
// allreduce latency) are provided analytically with the same latency
// parameters, matching how dedicated collective networks are modeled in
// the literature (LogP-style).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.h"
#include "sim/simulator.h"

namespace cr::sim {

struct NetworkConfig {
  Time latency_ns = 1500;              // one-way wire latency
  double bandwidth_gbps = 10.0;        // per-NIC injection bandwidth (GB/s)
  double mem_bandwidth_gbps = 50.0;    // intra-node copy bandwidth (GB/s)
  Time am_handler_ns = 300;            // active-message handler cost
  // Scenario knob: deterministic per-message AM-handler jitter in
  // [0, am_jitter_ns], hashed from the delivery event's uid (allocated
  // at the unroll-time send() call). Strictly additive. The analytic
  // helpers (transfer_time,
  // tree_latency) stay unjittered: they model dedicated collective
  // hardware, not per-message handler scheduling.
  Time am_jitter_ns = 0;
  uint64_t jitter_seed = 0;
};

class Network {
 public:
  Network(Simulator& sim, uint32_t nodes, NetworkConfig config);

  // Transfer `bytes` from src to dst after `precondition`; the returned
  // event triggers on delivery. `on_delivery` (optional) runs at delivery
  // time (real side effect, e.g. the actual memcpy of region data).
  // `on_inject` (optional) runs on the source side when the message is
  // injected, at the ready time: a copy gathers its source data here, as
  // RDMA reads the payload at injection, so later writes to the source
  // cannot leak into the in-flight message.
  Event send(uint32_t src, uint32_t dst, uint64_t bytes, Event precondition,
             Work on_delivery = nullptr, Work on_inject = nullptr);

  // Deterministic extra AM-handler delay for one delivery (0 unless the
  // config enables am_jitter_ns). Exposed for tests.
  Time handler_jitter(uint64_t delivered_uid) const;

  // Virtual duration of moving `bytes` across the wire (latency + serial).
  Time transfer_time(uint64_t bytes) const;
  // Virtual duration of an intra-node copy of `bytes`.
  Time local_copy_time(uint64_t bytes) const;
  // One-way latency of a `fanin`-ary reduction/broadcast tree over
  // `participants` nodes (used by barriers and dynamic collectives).
  Time tree_latency(uint32_t participants, uint32_t fanin = 2) const;

  uint64_t messages_sent() const { return messages_; }
  uint64_t bytes_sent() const { return bytes_; }

  const NetworkConfig& config() const { return config_; }

 private:
  friend class Simulator;
  // The inject continuation (send record `msg` became ready at `ready`)
  // and the delivery entry of a message carrying on_delivery work.
  void inject(uint32_t msg, uint32_t pre, Time ready);
  void deliver(uint32_t msg);

  Simulator* sim_;
  NetworkConfig config_;
  std::vector<Time> nic_free_;  // per-node injection availability
  uint64_t messages_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace cr::sim
