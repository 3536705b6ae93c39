#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "sim/simulator.h"
#include "support/check.h"
#include "support/hash.h"
#include "support/trace.h"

namespace cr::sim {

namespace {

// Serialization time of `bytes` at `bandwidth` B/ns, rounded *up* so a
// nonzero payload always costs at least 1 ns. Truncation here used to
// make sub-ns messages free, which let fine-grained communication
// patterns scale impossibly well.
Time serialization_time(uint64_t bytes, double bandwidth) {
  if (bytes == 0) return 0;
  return static_cast<Time>(
      std::ceil(static_cast<double>(bytes) / bandwidth));
}

}  // namespace

Network::Network(Simulator& sim, uint32_t nodes, NetworkConfig config)
    : sim_(&sim), config_(config), nic_free_(nodes, 0) {
  CR_CHECK(nodes > 0);
  CR_CHECK(config.bandwidth_gbps > 0 && config.mem_bandwidth_gbps > 0);
}

Event Network::send(uint32_t src, uint32_t dst, uint64_t bytes,
                    Event precondition, Work on_delivery, Work on_inject) {
  CR_CHECK(src < nic_free_.size() && dst < nic_free_.size());
  const Event delivered = sim_->make_event();
  const uint32_t msg = sim_->sends_.push(
      {this, bytes, src, dst, delivered.id_, sim_->store(std::move(on_inject)),
       sim_->store(std::move(on_delivery))});
  sim_->attach(precondition, Simulator::kInject, msg);
  return delivered;
}

void Network::inject(uint32_t msg, uint32_t pre, Time ready) {
  const Simulator::SendRecord& m = sim_->sends_[msg];
  ++messages_;
  bytes_ += m.bytes;
  if (m.on_inject != 0) sim_->call(m.on_inject);
  Time arrive;
  support::Tracer* t = sim_->tracer();
  if (m.src == m.dst) {
    arrive = ready + local_copy_time(m.bytes);
    if (t != nullptr) {
      const support::SpanId span = t->add_span(
          m.src, support::kMemTid, support::TraceCategory::kCopy,
          "local " + std::to_string(m.bytes) + "B", ready, arrive);
      t->edge(pre, span);
      t->bind(m.delivered, span);
    }
  } else {
    const Time serial = serialization_time(m.bytes, config_.bandwidth_gbps);
    const Time inject = std::max(ready, nic_free_[m.src]);
    nic_free_[m.src] = inject + serial;
    arrive = inject + serial + config_.latency_ns + config_.am_handler_ns +
             handler_jitter(m.delivered);
    if (t != nullptr) {
      // NIC busy interval: injection serialization only; wire latency
      // and handler time show up as a gap before the consumer starts.
      // Zero-byte sends are synchronization notifications.
      const bool is_sync = m.bytes == 0;
      std::string label = is_sync ? "notify >" : "xfer >";
      label += std::to_string(m.dst);
      if (!is_sync) {
        label += ' ';
        label += std::to_string(m.bytes);
        label += 'B';
      }
      const support::SpanId span = t->add_span(
          m.src, support::kNicTid,
          is_sync ? support::TraceCategory::kSync
                  : support::TraceCategory::kCopy,
          label, inject, inject + serial);
      t->edge(pre, span);
      t->bind(m.delivered, span);
    }
  }
  if (m.on_delivery != 0) {
    sim_->push(arrive, Simulator::kDeliver, msg);
  } else {
    sim_->push(arrive, Simulator::kTrigger, m.delivered);
  }
}

void Network::deliver(uint32_t msg) {
  const Simulator::SendRecord& m = sim_->sends_[msg];
  sim_->call(m.on_delivery);
  sim_->fire(m.delivered);
}

Time Network::handler_jitter(uint64_t delivered_uid) const {
  if (config_.am_jitter_ns == 0) return 0;
  // Pure function of the delivery event's id (assigned during the
  // unroll) and the configured seed, so runs are bit-identical.
  const uint64_t h = support::hash_mix(
      delivered_uid ^ (config_.jitter_seed * 0x9e3779b97f4a7c15ull) ^
      0x616d6a69747465ull);
  return static_cast<Time>(h % (config_.am_jitter_ns + 1));
}

Time Network::transfer_time(uint64_t bytes) const {
  return config_.latency_ns + config_.am_handler_ns +
         serialization_time(bytes, config_.bandwidth_gbps);
}

Time Network::local_copy_time(uint64_t bytes) const {
  return serialization_time(bytes, config_.mem_bandwidth_gbps);
}

Time Network::tree_latency(uint32_t participants, uint32_t fanin) const {
  CR_CHECK(fanin >= 2);
  if (participants <= 1) return 0;
  // Integer level count: the smallest L with fanin^L >= participants.
  // The float-log form (ceil(log(p)/log(f))) rounds exact powers up on
  // some platforms (e.g. log(125)/log(5) == 3.0000000000000004).
  Time levels = 0;
  uint64_t reach = 1;
  while (reach < participants) {
    reach *= fanin;
    ++levels;
  }
  return levels * (config_.latency_ns + config_.am_handler_ns);
}

}  // namespace cr::sim
