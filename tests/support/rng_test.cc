#include "support/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

namespace cr::support {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowOneIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

// The general rejection sampler, with no power-of-two path, and
// `next_bool` spelled out: both read `rng` only through next_u64, so
// they fix the values and the stream position.
uint64_t reference_next_below(Rng& rng, uint64_t bound) {
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = rng.next_u64();
    if (r >= threshold) return r % bound;
  }
}

bool reference_next_bool(Rng& rng, double p_true) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53 < p_true;
}

TEST(Rng, NextBelowMatchesRejectionReference) {
  const uint64_t bounds[] = {1, 2, 3, 5, 8, 24, 128,
                             uint64_t{1} << 32,
                             uint64_t{1} << 63,
                             (uint64_t{1} << 63) + 1,
                             UINT64_MAX};
  Rng rng(2017), ref(2017);
  for (uint64_t bound : bounds) {
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(rng.next_below(bound), reference_next_below(ref, bound))
          << "bound " << bound << ", draw " << i;
      // Interleaved trials: a path that consumed a different number of
      // draws would shift every later value.
      if (i % 3 == 0) {
        ASSERT_EQ(rng.next_bool(0.3), reference_next_bool(ref, 0.3))
            << "bound " << bound << ", draw " << i;
      }
    }
  }
  EXPECT_EQ(rng.next_u64(), ref.next_u64());
}

TEST(Rng, SplitIsDeterministicAndIndependent) {
  Rng base(99);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  Rng s1_again = base.split(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng a(5), b(5);
  (void)a.split(3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace cr::support
