// Dynamic collectives (paper §4.4): asynchronous allreduce over the
// shards with a dynamically determined number of participants per
// generation. Scalars reduced inside inner loops are accumulated locally
// by each shard, contributed here, folded deterministically in
// participant order, and broadcast back; the result is exposed as an
// event plus a value slot so consumers never block a control thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "rt/physical.h"  // ReduceOp
#include "sim/event.h"
#include "sim/network.h"

namespace cr::rt {

class DynamicCollective {
 public:
  DynamicCollective(sim::Simulator& sim, sim::Network& net,
                    uint32_t participants, ReduceOp op);

  // Contribute participant `rank`'s value for `generation`; `value` is
  // sampled at contribution time (after `precondition` triggers), so
  // shards can hand in accumulators filled by their point tasks.
  void contribute(uint64_t generation, uint32_t rank, sim::Event precondition,
                  std::function<double()> value);

  // Triggers when the folded result of `generation` is available
  // everywhere (fan-in + fan-out latency after the last contribution).
  sim::Event result_event(uint64_t generation);

  // Valid once result_event(generation) has triggered.
  double result(uint64_t generation) const;

  // Uid of the internal merge-of-arrivals event for `generation`: the
  // point in the happens-before graph where the fold reads every
  // contribution. 0 until all contributions are in (or when every
  // arrival was already triggered — i.e. the gather waits on nothing).
  // The race checker anchors the fold's reads here.
  uint64_t gather_uid(uint64_t generation) const;

 private:
  struct Generation {
    // Indexed by rank: sampling thunks, filled as contributions arrive.
    std::vector<std::function<double()>> values;
    std::vector<sim::Event> arrivals;
    sim::Event done;
    double result = 0;
    bool wired = false;
    uint64_t gather_uid = 0;
  };
  Generation& gen(uint64_t g);
  void maybe_wire(Generation& g);

  sim::Simulator* sim_;
  sim::Network* net_;
  uint32_t participants_;
  ReduceOp op_;
  std::map<uint64_t, Generation> generations_;
};

}  // namespace cr::rt
