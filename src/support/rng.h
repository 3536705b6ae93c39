// Deterministic, splittable pseudo-random number generator
// (xoshiro256** with splitmix64 seeding). Every randomized component of
// the library (mesh/graph generators, fuzz tests) takes an explicit Rng
// so whole experiments replay bit-identically from a single seed.
//
// The per-draw calls are inline: the graph generators make millions of
// them. `next_below` takes a division-free path for a power-of-two bound
// (the rejection threshold is 0 there and `r % bound == r & (bound - 1)`)
// that returns the same values and consumes the same draws as the
// general rejection path.
#pragma once

#include <cstdint>

#include "support/check.h"

namespace cr::support {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Uniform in [0, 2^64).
  uint64_t next_u64() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  // Uniform in [0, bound); bound must be nonzero. Uses rejection sampling
  // so results are exactly uniform.
  uint64_t next_below(uint64_t bound) {
    CR_CHECK(bound != 0);
    if ((bound & (bound - 1)) == 0) return next_u64() & (bound - 1);
    // Rejection sampling over the largest multiple of bound <= 2^64.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }
  // Uniform in [lo, hi] inclusive.
  int64_t next_in(int64_t lo, int64_t hi);
  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  // Bernoulli trial.
  bool next_bool(double p_true = 0.5) { return next_double() < p_true; }
  // Derive an independent stream; deterministic function of the current
  // state and `stream`, does not advance this generator.
  Rng split(uint64_t stream) const;

 private:
  static uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace cr::support
