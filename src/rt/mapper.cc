#include "rt/mapper.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "support/check.h"

namespace cr::rt {

uint32_t block_owner(uint64_t c, uint64_t colors, uint32_t parts) {
  CR_CHECK(c < colors && parts > 0);
  const uint64_t base = colors / parts;
  const uint64_t rem = colors % parts;
  const uint64_t cut = rem * (base + 1);
  // With fewer colors than parts, base == 0 and every color is below
  // the cut: color c is part c's only color.
  if (c < cut) return static_cast<uint32_t>(c / (base + 1));
  return static_cast<uint32_t>(rem + (c - cut) / base);
}

BlockRange block_range(uint64_t colors, uint32_t parts, uint32_t part) {
  CR_CHECK(part < parts);
  const uint64_t base = colors / parts;
  const uint64_t rem = colors % parts;
  const uint64_t begin = part * base + std::min<uint64_t>(part, rem);
  return BlockRange{begin, begin + base + (part < rem ? 1 : 0)};
}

Mapper::Mapper(const sim::Machine& machine, const MapperOptions& options)
    : name_(options.name),
      nodes_(machine.nodes()),
      cores_(machine.cores_per_node()),
      reserved_(options.reserved_cores) {
  if (reserved_ >= cores_) {
    // Reserving every core would leave compute_cores_ == 0 and turn the
    // round-robin in compute_proc into a division by zero. Clamp so at
    // least one compute core survives (on a 1-core node the control and
    // compute roles share core 0, as they must).
    std::fprintf(stderr,
                 "[WARN] mapper: reserved_cores=%u >= cores_per_node=%u; "
                 "clamping to %u so one compute core remains\n",
                 reserved_, cores_, cores_ - 1);
    reserved_ = cores_ - 1;
  }
  compute_cores_ = cores_ - reserved_;
  speeds_.reserve(nodes_);
  for (uint32_t n = 0; n < nodes_; ++n) {
    speeds_.push_back(machine.node_speed(n));
  }
}

uint32_t Mapper::node_of_color(uint64_t c, const LaunchShape& shape) const {
  // Block distribution: ceil(num_colors / nodes) colors per node, leading
  // nodes take the remainder — identical to the shard blocking so
  // implicit and SPMD executions place point tasks on the same nodes.
  // Weights are deliberately ignored: the default policy's placements
  // are golden-snapshotted and must depend on num_colors alone.
  return block_owner(c, shape.num_colors, nodes_);
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

namespace {

// --- balanced: speed- and weight-proportional contiguous blocks -------
//
// Colors stay contiguous per node (locality-preserving like the default
// blocking) but each node's share of the total launch weight is
// proportional to its speed factor. All arithmetic is integral — speed
// factors are quantized to permille — so placements are bit-stable
// across platforms and compilers.
class BalancedMapper : public Mapper {
 public:
  using Mapper::Mapper;

  uint32_t node_of_color(uint64_t c, const LaunchShape& shape) const override {
    CR_CHECK(c < shape.num_colors);
    const Cuts& cuts = cuts_for(shape);
    // Color c sits at doubled-midpoint 2*prefix(c) + w_c; it belongs to
    // the first node whose cumulative-target cut exceeds that point.
    const uint64_t pos = 2 * cuts.prefix[c] + cuts.weight(shape, c);
    const auto it =
        std::upper_bound(cuts.node_cut.begin(), cuts.node_cut.end(), pos);
    return static_cast<uint32_t>(
        std::min<size_t>(it - cuts.node_cut.begin(),
                         cuts.node_cut.size() - 1));
  }

 private:
  struct Cuts {
    std::vector<uint64_t> prefix;    // exclusive prefix sums of weights
    std::vector<uint64_t> node_cut;  // doubled cumulative node targets
    uint64_t weight(const LaunchShape& shape, uint64_t c) const {
      return shape.weights == nullptr ? 1 : (*shape.weights)[c];
    }
  };

  const Cuts& cuts_for(const LaunchShape& shape) const {
    // Placements are queried only during the single-threaded unroll, so
    // a plain memo (keyed by the caller-cached weights vector identity)
    // is safe. The entry is a pure function of (weights, num_colors,
    // speeds), so memoization cannot change any answer.
    const auto key = std::make_pair(
        reinterpret_cast<const void*>(shape.weights), shape.num_colors);
    auto [it, inserted] = cuts_.try_emplace(key);
    if (!inserted) return it->second;
    Cuts& cuts = it->second;
    cuts.prefix.resize(shape.num_colors + 1, 0);
    for (uint64_t c = 0; c < shape.num_colors; ++c) {
      cuts.prefix[c + 1] = cuts.prefix[c] + cuts.weight(shape, c);
    }
    uint64_t total = cuts.prefix[shape.num_colors];
    if (total == 0) {
      // Degenerate (all-empty subregions): weight every color equally.
      cuts.prefix.assign(shape.num_colors + 1, 0);
      for (uint64_t c = 0; c <= shape.num_colors; ++c) cuts.prefix[c] = c;
      total = shape.num_colors;
    }
    uint64_t speed_total = 0;
    std::vector<uint64_t> permille(nodes_);
    for (uint32_t n = 0; n < nodes_; ++n) {
      permille[n] = static_cast<uint64_t>(
          std::llround(std::max(speeds_[n], 0.0) * 1000.0));
      if (permille[n] == 0) permille[n] = 1;  // never starve a cut of room
      speed_total += permille[n];
    }
    cuts.node_cut.resize(nodes_);
    uint64_t cum = 0;
    for (uint32_t n = 0; n < nodes_; ++n) {
      cum += permille[n];
      // Doubled so midpoints compare without fractions; the last cut is
      // exactly 2*total, past every color's midpoint.
      cuts.node_cut[n] = 2 * total * cum / speed_total;
    }
    return cuts;
  }

  mutable std::map<std::pair<const void*, uint64_t>, Cuts> cuts_;
};

// --- adversarial: worst-case clustering on the slowest node -----------
class AdversarialMapper : public Mapper {
 public:
  AdversarialMapper(const sim::Machine& machine, const MapperOptions& options)
      : Mapper(machine, options) {
    for (uint32_t n = 1; n < nodes_; ++n) {
      if (speeds_[n] < speeds_[hot_]) hot_ = n;
    }
  }

  uint32_t node_of_color(uint64_t c, const LaunchShape& shape) const override {
    CR_CHECK(c < shape.num_colors);
    return hot_;  // every point task and instance on the slowest node
  }

 private:
  uint32_t hot_ = 0;
};

}  // namespace

const std::vector<std::string>& mapper_names() {
  static const std::vector<std::string> names = {"default", "balanced",
                                                 "adversarial"};
  return names;
}

std::unique_ptr<Mapper> make_mapper(const sim::Machine& machine,
                                    const MapperOptions& options) {
  if (options.name == "default") {
    return std::make_unique<Mapper>(machine, options);
  }
  if (options.name == "balanced") {
    return std::make_unique<BalancedMapper>(machine, options);
  }
  if (options.name == "adversarial") {
    return std::make_unique<AdversarialMapper>(machine, options);
  }
  std::string msg = "unknown mapper \"" + options.name + "\"; known:";
  for (const std::string& n : mapper_names()) msg += " " + n;
  CR_CHECK_MSG(false, msg.c_str());
  return nullptr;
}

}  // namespace cr::rt
