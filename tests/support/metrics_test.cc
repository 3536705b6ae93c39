#include "support/metrics.h"

#include <gtest/gtest.h>

namespace cr::support {
namespace {

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_hi(0), 0u);
  // Bucket b holds [2^(b-1), 2^b - 1]: powers of two open a new bucket.
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  // Every power-of-two edge up to 2^63: the power itself opens bucket
  // k+1 and the value just below it closes bucket k.
  for (size_t k = 0; k < 64; ++k) {
    const uint64_t pow = 1ull << k;
    EXPECT_EQ(Histogram::bucket_of(pow), k + 1) << "2^" << k;
    if (pow > 1) {
      EXPECT_EQ(Histogram::bucket_of(pow - 1), k) << "2^" << k << "-1";
    }
    EXPECT_EQ(Histogram::bucket_lo(k + 1), pow);
    EXPECT_EQ(Histogram::bucket_hi(k), pow - 1);
  }
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::bucket_hi(64), UINT64_MAX);
}

TEST(Histogram, EveryBucketEdgeLandsInItsOwnBucket) {
  // A value equal to a bucket's lower or upper edge must land in that
  // bucket (never the neighbor), and consecutive buckets must tile the
  // u64 range with no gap or overlap: hi(b) + 1 == lo(b + 1).
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b) << b;
    if (b + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_hi(b) + 1, Histogram::bucket_lo(b + 1))
          << b;
    }
  }
  // Recording at the edges tallies where bucket_of points.
  Histogram h;
  h.record(uint64_t{1} << 63);        // lo edge of the last bucket
  h.record(UINT64_MAX);               // its saturated hi edge
  h.record((uint64_t{1} << 63) - 1);  // hi edge of bucket 63
  EXPECT_EQ(h.buckets()[64], 2u);
  EXPECT_EQ(h.buckets()[63], 1u);
}

TEST(Histogram, RecordAndStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty histogram reports 0, not UINT64_MAX
  h.record(0);
  h.record(7);
  h.record(8);
  h.record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1015u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.buckets()[0], 1u);                          // the 0
  EXPECT_EQ(h.buckets()[Histogram::bucket_of(7)], 1u);    // bucket 3
  EXPECT_EQ(h.buckets()[Histogram::bucket_of(8)], 1u);    // bucket 4
  EXPECT_EQ(h.buckets()[Histogram::bucket_of(1000)], 1u);
}

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

TEST(MetricsRegistry, SnapshotFlattensHistograms) {
  MetricsRegistry m;
  m.counter("x.ops").add(5);
  m.gauge("x.depth").set(2.5);
  Histogram& h = m.histogram("x.lat");
  h.record(10);
  h.record(20);
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.at("x.ops"), 5.0);
  EXPECT_EQ(snap.at("x.depth"), 2.5);
  EXPECT_EQ(snap.at("x.lat.count"), 2.0);
  EXPECT_EQ(snap.at("x.lat.sum"), 30.0);
  EXPECT_EQ(snap.at("x.lat.min"), 10.0);
  EXPECT_EQ(snap.at("x.lat.max"), 20.0);
}

TEST(MetricsRegistry, SnapshotDeterministicAcrossIdenticalSequences) {
  auto run = [] {
    MetricsRegistry m;
    m.counter("z.ops").add(3);
    m.histogram("lat").record(100);
    m.histogram("lat").record(5);
    m.gauge("depth").set_max(8);
    m.gauge("depth").set_max(4);  // no-op: max keeps 8
    return m.snapshot();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace cr::support
