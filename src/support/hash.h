// Hashing utilities shared by the runtime's memoization caches and the
// compiler's pair-keyed tables. std::hash of an integer is the identity
// on common standard libraries; the caches key on small sequential ids,
// so every hasher here finishes with a strong 64-bit mix to keep bucket
// distributions flat.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace cr::support {

// splitmix64 finalizer: bijective, avalanches all bits.
inline uint64_t hash_mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A deterministic value in [0, 1) for `x`: the top 53 bits of its mix.
// The apps draw per-element parameters and per-(rank, iteration) noise
// from it, so every executor agrees without sharing a generator.
inline double hash_unit(uint64_t x) {
  return static_cast<double>(hash_mix(x) >> 11) * 0x1.0p-53;
}

// Two 32-bit ids packed into one cache key (order-sensitive; callers
// normalize to (min, max) when the relation is symmetric).
inline constexpr uint64_t pack_pair32(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Hasher for unordered containers keyed on packed or raw u64 ids.
struct U64Hash {
  size_t operator()(uint64_t x) const { return static_cast<size_t>(hash_mix(x)); }
};

// Hasher for std::pair keys of integral ids.
struct PairHash {
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B>& p) const {
    return static_cast<size_t>(
        hash_mix(pack_pair32(static_cast<uint32_t>(p.first),
                             static_cast<uint32_t>(p.second))));
  }
};

}  // namespace cr::support
