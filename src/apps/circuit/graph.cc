#include "apps/circuit/graph.h"

#include <algorithm>

#include "support/check.h"

namespace cr::apps::circuit {

Graph generate_graph(const GraphConfig& config) {
  CR_CHECK(config.pieces >= 1);
  CR_CHECK(config.nodes_per_piece >= 2);
  CR_CHECK_MSG(config.pieces <= UINT32_MAX / config.nodes_per_piece,
               "circuit graph: pieces * nodes_per_piece must fit 32-bit "
               "node ids; use fewer pieces or fewer nodes per piece");
  CR_CHECK_MSG(config.pct_cross >= 0.0 && config.pct_cross <= 1.0,
               "circuit graph: pct_cross is a fraction of wires and must "
               "lie in [0, 1]");
  CR_CHECK_MSG(config.window > 0 || config.pieces == 1 ||
                   config.pct_cross == 0.0,
               "circuit graph: window 0 keeps every cross wire in its own "
               "piece; set window >= 1 or pct_cross = 0");
  Graph g;
  g.config = config;
  const uint64_t npp = config.nodes_per_piece;
  g.in_node.resize(g.num_wires());
  g.out_node.resize(g.num_wires());
  g.shared.assign(g.num_nodes(), false);

  support::Rng rng(config.seed);
  uint64_t w = 0;
  for (uint64_t piece = 0; piece < config.pieces; ++piece) {
    const uint64_t base = piece * npp;
    const uint64_t lo = piece > config.window ? piece - config.window : 0;
    const uint64_t hi = std::min(config.pieces - 1, piece + config.window);
    for (uint64_t k = 0; k < config.wires_per_piece; ++k, ++w) {
      // The in-node is always local to the wire's piece.
      const uint64_t in = base + rng.next_below(npp);
      // The out-node is usually local, sometimes in a nearby piece.
      uint64_t out;
      if (config.pieces > 1 && rng.next_bool(config.pct_cross)) {
        uint64_t other = lo + rng.next_below(hi - lo + 1);
        if (other == piece) other = (piece + 1 <= hi) ? piece + 1 : lo;
        out = other * npp + rng.next_below(npp);
        // Both endpoints of a cross wire are shared: the remote node is
        // read/reduced by this piece, and the local node may be involved
        // in ghost exchanges of the remote piece's analysis.
        g.shared[in] = true;
        g.shared[out] = true;
        g.cross_wires.push_back(w);
      } else {
        out = base + rng.next_below(npp);
        if (out == in) out = in + 1 == base + npp ? base : in + 1;
      }
      g.in_node[w] = static_cast<uint32_t>(in);
      g.out_node[w] = static_cast<uint32_t>(out);
    }
  }
  return g;
}

}  // namespace cr::apps::circuit
