#include "support/rng.h"

namespace cr::support {

namespace {
uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

int64_t Rng::next_in(int64_t lo, int64_t hi) {
  CR_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(next_u64());  // full range
  return lo + static_cast<int64_t>(next_below(span));
}

Rng Rng::split(uint64_t stream) const {
  uint64_t x = s_[0] ^ rotl(s_[3], 13) ^ (stream * 0xd1342543de82ef95ull);
  Rng out(0);
  for (auto& s : out.s_) s = splitmix64(x);
  return out;
}

}  // namespace cr::support
