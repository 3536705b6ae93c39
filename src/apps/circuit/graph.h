// Random sparse circuit graph generator (paper §5.4: "a randomly
// generated sparse graph with 100k edges and 25k vertices per compute
// node").
//
// Nodes and wires are grouped into pieces (one task per piece). Most
// wires stay within their piece; a configurable fraction crosses to
// pieces within a window, giving the O(1)-neighbors sparsity that makes
// the intersection optimization linear (paper §3.3). A node touched by
// any cross-piece wire is *shared*, the rest are *private* — the
// hierarchical private/ghost structure of paper §4.5.
//
// The generator records the cross-piece wires as it draws them, so the
// ghost partition is built from that list in O(cross wires) instead of a
// scan over every wire. Node ids are 32-bit (the config must keep
// pieces * nodes_per_piece within UINT32_MAX); the kernels widen them
// to the int64 pointer fields.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.h"

namespace cr::apps::circuit {

struct GraphConfig {
  uint64_t pieces = 4;
  uint64_t nodes_per_piece = 64;
  uint64_t wires_per_piece = 256;
  double pct_cross = 0.1;   // fraction of wires leaving their piece
  uint64_t window = 2;      // cross wires reach at most this many pieces
  uint64_t seed = 42;
};

struct Graph {
  GraphConfig config;
  // Wire w (global id) connects in_node[w] -> out_node[w] (node ids).
  std::vector<uint32_t> in_node;
  std::vector<uint32_t> out_node;
  // Per node id: touched by a wire of another piece?
  std::vector<bool> shared;
  // Ids of the wires whose out-node lies in another piece, ascending.
  // Their in-nodes are always local to the wire's piece.
  std::vector<uint64_t> cross_wires;

  uint64_t num_nodes() const {
    return config.pieces * config.nodes_per_piece;
  }
  uint64_t num_wires() const {
    return config.pieces * config.wires_per_piece;
  }
  uint64_t piece_of_node(uint64_t n) const {
    return n / config.nodes_per_piece;
  }
  uint64_t piece_of_wire(uint64_t w) const {
    return w / config.wires_per_piece;
  }
};

Graph generate_graph(const GraphConfig& config);

}  // namespace cr::apps::circuit
