// The cross-shard rendezvous behind phase barriers (paper §3.4) and
// dynamic collectives (paper §4.4). Every participant hands in one
// arrival event; once all have triggered (the gather), the release is
// a fan-in + fan-out tree latency later. A collective folds its
// contributions at the gather.
//
// Unlike an MPI barrier, arrivals and the release are *events*: they
// attach as pre/postconditions of tasks and copies and never block a
// control thread (the property §3.4 highlights).
#pragma once

#include <cstdint>
#include <span>

#include "sim/event.h"
#include "sim/network.h"

namespace cr::rt {

// Wires one rendezvous of `arrivals.size()` participants: `done`
// triggers 2 * net.tree_latency(arrivals.size()) after the last arrival,
// and `at_gather` (if any) runs at the gather, where it sees every
// participant's state as it is then. Under tracing it records the
// arrivals and the release as instants and the propagation as a sync
// span named `name` on runtime track `track`. Returns the gather: the
// remote merge of the arrivals, the no-event when all of them have
// already triggered.
sim::Event rendezvous(sim::Simulator& sim, const sim::Network& net,
                      std::span<const sim::Event> arrivals, sim::Event done,
                      const char* name, uint32_t track,
                      sim::Work at_gather = nullptr);

}  // namespace cr::rt
