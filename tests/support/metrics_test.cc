#include "support/metrics.h"

#include <gtest/gtest.h>

namespace cr::support {
namespace {

TEST(MetricsRegistry, LookupOrCreateAndStableRefs) {
  MetricsRegistry m;
  Counter& a = m.counter("a.count");
  a.add(3);
  // Creating more instruments must not invalidate the reference.
  for (int i = 0; i < 100; ++i) {
    m.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&m.counter("a.count"), &a);
  EXPECT_EQ(m.counter("a.count").value(), 3u);
}

TEST(MetricsRegistry, SnapshotDeterministicAcrossIdenticalSequences) {
  auto run = [] {
    MetricsRegistry m;
    m.counter("z.ops").add(3);
    m.counter("depth").set(8);
    m.counter("a.ops").add();
    return m.snapshot();
  };
  EXPECT_EQ(run(), run());
  EXPECT_EQ(run().begin()->first, "a.ops");  // sorted by name
}

TEST(MetricsRegistry, CountOfTreatsAMissingKeyAsZero) {
  MetricsRegistry m;
  m.counter("x.ops").add(5);
  const auto snap = m.snapshot();
  EXPECT_EQ(count_of(snap, "x.ops"), 5u);
  EXPECT_EQ(count_of(snap, "x.never"), 0u);
}

}  // namespace
}  // namespace cr::support
