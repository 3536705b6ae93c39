// A happens-before recorder for event wiring. When attached to a
// Simulator, every causal relationship between events is logged as a
// (predecessor uid, successor uid) edge as it is established:
//   - Simulator::merge / merge_remote record one edge per input into
//     the merged event,
//   - every trigger records an edge from the ambient "cause" (the event
//     whose trigger or continuation led, possibly through queue
//     entries, to this trigger),
//   - every queue entry captures the ambient cause so that edges
//     survive deferred work (processor spans, network deliveries,
//     barrier/collective releases).
// It also records the order in which events fire. An edge's source
// fires before its target (a cause before its effect, every merge input
// before the merge), so the fire order is a topological order of the
// edges: the race checker sweeps it instead of sorting the graph.
// The resulting edge list is the ground-truth happens-before DAG the
// race checker walks. Like the Tracer, a detached graph is the
// zero-cost disabled path: nothing is recorded and the virtual
// timeline is unaffected either way.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace cr::sim {

class EventGraph {
 public:
  // Record "from happens-before to". Edges touching the no-event
  // (uid 0) carry no information and are dropped.
  void edge(uint32_t from, uint32_t to) {
    if (from == 0 || to == 0 || from == to) return;
    edges_.push_back({from, to});
  }

  // Record that `uid` fired (each event fires at most once).
  void fired(uint32_t uid) { fire_order_.push_back(uid); }

  // Only valid once recording has quiesced (after the run completes).
  const std::vector<std::pair<uint32_t, uint32_t>>& edges() const {
    return edges_;
  }
  const std::vector<uint32_t>& fire_order() const { return fire_order_; }

  void clear() {
    edges_.clear();
    fire_order_.clear();
  }

 private:
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
  std::vector<uint32_t> fire_order_;
};

}  // namespace cr::sim
