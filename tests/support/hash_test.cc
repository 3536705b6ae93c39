#include "support/hash.h"

#include <gtest/gtest.h>

namespace cr::support {
namespace {

// The apps' per-element parameters and the references' noise draws come
// from hash_unit, so its values are part of every baseline: these are
// pinned bit for bit.
TEST(HashUnit, ValuesPinned) {
  EXPECT_EQ(hash_unit(0), 0x1.c4415072f63b9p-1);
  EXPECT_EQ(hash_unit(1), 0x1.22145bd91204bp-1);
  EXPECT_EQ(hash_unit(42), 0x1.7bae644c5fd6dp-1);
  EXPECT_EQ(hash_unit(~0ull), 0x1.c9b2e2ee36ca5p-1);
}

}  // namespace
}  // namespace cr::support
