#include "rt/mapper.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace cr::rt {

BlockRange block_range(uint64_t colors, uint32_t parts, uint32_t part) {
  CR_CHECK(part < parts);
  const uint64_t base = colors / parts;
  const uint64_t rem = colors % parts;
  const uint64_t begin = part * base + std::min<uint64_t>(part, rem);
  return BlockRange{begin, begin + base + (part < rem ? 1 : 0)};
}

const std::vector<std::string>& mapper_names() {
  static const std::vector<std::string> names = {"default", "balanced",
                                                 "adversarial"};
  return names;
}

Mapper::Mapper(const sim::Machine& machine, const MapperOptions& options)
    : name_(options.name),
      nodes_(machine.nodes()),
      // On a 1-core node the control and compute roles share core 0.
      reserved_(machine.cores_per_node() > 1 ? 1 : 0),
      compute_cores_(machine.cores_per_node() - reserved_) {
  const std::vector<std::string>& names = mapper_names();
  const auto it = std::find(names.begin(), names.end(), name_);
  if (it == names.end()) {
    std::string msg = "unknown mapper \"" + name_ + "\"; known:";
    for (const std::string& n : names) msg += " " + n;
    CR_CHECK_MSG(false, msg.c_str());
  }
  policy_ = static_cast<Policy>(it - names.begin());
  permille_.reserve(nodes_);
  for (uint32_t n = 0; n < nodes_; ++n) {
    const double speed = machine.node_speed(n);
    // Quantized so placements are bit-stable across platforms and
    // compilers; never 0, so no cut is starved of room.
    const auto permille =
        static_cast<uint64_t>(std::llround(std::max(speed, 0.0) * 1000.0));
    permille_.push_back(std::max<uint64_t>(permille, 1));
    permille_total_ += permille_.back();
    if (speed < machine.node_speed(slowest_)) slowest_ = n;
  }
}

std::vector<uint32_t> Mapper::place(std::span<const uint64_t> weights) const {
  const uint64_t colors = weights.size();
  std::vector<uint32_t> row(colors);
  switch (policy_) {
    case Policy::kDefault:
      // Identical to the shard blocking, so implicit and SPMD executions
      // place point tasks on the same nodes.
      for (uint32_t n = 0; n < nodes_; ++n) {
        const BlockRange r = block_range(colors, nodes_, n);
        std::fill(row.begin() + r.begin, row.begin() + r.end, n);
      }
      break;
    case Policy::kBalanced: {
      // Color c sits at the doubled midpoint 2*prefix(c) + w_c and
      // belongs to the first node whose doubled cumulative target
      // 2*total*speed(0..n)/speed_total exceeds it (the last node past
      // every midpoint). Midpoints never decrease, so one forward walk
      // over the nodes finds every cut.
      uint64_t total = 0;
      for (uint64_t w : weights) total += w;
      // All-empty subregions: the prefix counts every color as 1 (the
      // midpoints stay 2*prefix, as the weights are 0).
      const bool uniform = total == 0;
      if (uniform) total = colors;
      uint32_t n = 0;
      uint64_t cum = permille_[0];
      uint64_t cut = 2 * total * cum / permille_total_;
      uint64_t prefix = 0;
      for (uint64_t c = 0; c < colors; ++c) {
        const uint64_t pos = 2 * prefix + weights[c];
        while (n + 1 < nodes_ && cut <= pos) {
          cum += permille_[++n];
          cut = 2 * total * cum / permille_total_;
        }
        row[c] = n;
        prefix += uniform ? 1 : weights[c];
      }
      break;
    }
    case Policy::kAdversarial:
      row.assign(colors, slowest_);
      break;
  }
  return row;
}

uint32_t Mapper::shard_node(uint32_t s, uint32_t num_shards) const {
  CR_CHECK(s < num_shards);
  // One shard per node in the common case; multiple shards per node
  // spread evenly otherwise.
  return static_cast<uint32_t>(
      static_cast<uint64_t>(s) * nodes_ / num_shards);
}

sim::ProcId Mapper::compute_proc(uint32_t node, uint64_t seq) const {
  return sim::ProcId{node,
                     reserved_ + static_cast<uint32_t>(seq % compute_cores_)};
}

sim::ProcId Mapper::control_proc(uint32_t node) const {
  return sim::ProcId{node, 0};
}

}  // namespace cr::rt
