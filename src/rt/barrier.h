// Phase barriers with generations, after Legion's producer/consumer
// barriers (paper §3.4). A barrier has a fixed number of participants;
// each generation completes when every participant's arrival event has
// triggered, and observers of that generation are released a
// fan-in + fan-out tree latency later.
//
// Unlike an MPI barrier, arrivals and waits are *events*: they attach as
// pre/postconditions of tasks and copies and never block a control
// thread (the property §3.4 highlights).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/event.h"
#include "sim/network.h"

namespace cr::rt {

class PhaseBarrier {
 public:
  PhaseBarrier(sim::Simulator& sim, sim::Network& net, uint32_t participants);

  // Register one arrival for `generation`, gated on `precondition`.
  void arrive(uint64_t generation, sim::Event precondition);

  // Event that triggers when `generation` completes (all arrivals +
  // propagation latency).
  sim::Event wait(uint64_t generation);

  uint32_t participants() const { return participants_; }

 private:
  struct Generation {
    std::vector<sim::Event> arrivals;
    // Triggered once all arrivals are in and merged.
    sim::Event done;
    bool wired = false;
  };
  Generation& gen(uint64_t g);
  void maybe_wire(Generation& g);

  sim::Simulator* sim_;
  sim::Network* net_;
  uint32_t participants_;
  std::map<uint64_t, Generation> generations_;
};

}  // namespace cr::rt
