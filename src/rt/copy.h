// The copy engine: explicit data movement between physical instances.
//
// Control replication turns the shared-memory region semantics into
// distributed storage plus explicit copies (paper §3); this engine issues
// those copies. A copy moves the given element set of the given fields
// from a source instance to a destination instance, costing network time
// (cross-node) or memory bandwidth (intra-node) in virtual time and — in
// real-data mode — actually moving the bytes at delivery time. Reduction
// copies fold instead of overwrite (paper §4.3).
#pragma once

#include <cstdint>
#include <vector>

#include "rt/physical.h"
#include "sim/event.h"
#include "sim/network.h"

namespace cr::rt {

// `points` and `fields` are references, not copies: the engine passes a
// pair table's set and the copy statement's field list. Both must
// outlive the copy's delivery, because in real-data executions the
// payload is gathered at injection and scattered at delivery, after
// issue() has returned.
struct CopyRequest {
  RegionId src_region = kNoId;
  RegionId dst_region = kNoId;
  uint32_t src_node = 0;
  uint32_t dst_node = 0;
  // Instances are bound only in real-data executions.
  InstanceId src_inst = kNoId;
  InstanceId dst_inst = kNoId;
  const support::IntervalSet& points;  // the elements to move (intersected)
  const std::vector<FieldId>& fields;
  bool reduction = false;
  ReduceOp redop = ReduceOp::kSum;
};

class CopyEngine {
 public:
  CopyEngine(sim::Network& net, const RegionForest& forest,
             InstanceManager* instances)
      : net_(&net), forest_(&forest), instances_(instances) {}

  // Issue the copy after `precondition`; returns the completion event.
  // `req.points` must not be empty: the engine skips (and counts) empty
  // pairs before calling this.
  sim::Event issue(const CopyRequest& req, sim::Event precondition);

  uint64_t copies_issued() const { return copies_; }
  uint64_t bytes_moved() const { return bytes_; }

 private:
  sim::Network* net_;
  const RegionForest* forest_;
  InstanceManager* instances_;  // null in virtual-only executions
  uint64_t copies_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace cr::rt
