#include "support/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace cr::support {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Tracer, BreakdownPartitionsMachineTimeExactly) {
  Tracer t;
  t.declare_track(0, 0, "core 0");
  t.declare_track(0, 1, "core 1");
  t.add_span(0, 0, TraceCategory::kCompute, "a", 0, 40);
  t.add_span(0, 0, TraceCategory::kCopy, "b", 60, 80);
  t.add_span(0, 1, TraceCategory::kSync, "c", 10, 30);
  const TraceSummary s = t.summarize(100);
  const TraceBreakdown& b = s.breakdown;
  EXPECT_EQ(b.tracks, 2u);
  EXPECT_DOUBLE_EQ(b.compute_ns, 40.0);
  EXPECT_DOUBLE_EQ(b.copy_ns, 20.0);
  EXPECT_DOUBLE_EQ(b.sync_ns, 20.0);
  EXPECT_DOUBLE_EQ(b.idle_ns, 120.0);
  EXPECT_DOUBLE_EQ(b.compute_ns + b.copy_ns + b.sync_ns + b.idle_ns,
                   b.total_ns);
  EXPECT_DOUBLE_EQ(b.total_ns, 200.0);
}

TEST(Tracer, OverlapClaimsByCategoryPriority) {
  // compute > copy > sync: overlapping intervals on one track are
  // counted once, by the highest-priority claimant.
  Tracer t;
  t.declare_track(0, 0, "core 0");
  t.add_span(0, 0, TraceCategory::kCompute, "a", 0, 50);
  t.add_span(0, 0, TraceCategory::kCopy, "b", 40, 70);
  t.add_span(0, 0, TraceCategory::kSync, "c", 60, 90);
  const TraceBreakdown& b = t.summarize(100).breakdown;
  EXPECT_DOUBLE_EQ(b.compute_ns, 50.0);
  EXPECT_DOUBLE_EQ(b.copy_ns, 20.0);  // [50,70)
  EXPECT_DOUBLE_EQ(b.sync_ns, 20.0);  // [70,90)
  EXPECT_DOUBLE_EQ(b.idle_ns, 10.0);
}

TEST(Tracer, RuntimeTracksAreExcludedFromIdleAccounting) {
  Tracer t;
  t.declare_track(0, 0, "core 0");
  t.declare_track(kRuntimePid, 0, "barriers", false);
  t.add_span(kRuntimePid, 0, TraceCategory::kSync, "barrier", 0, 100);
  const TraceBreakdown& b = t.summarize(100).breakdown;
  EXPECT_EQ(b.tracks, 1u);
  EXPECT_DOUBLE_EQ(b.sync_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.idle_ns, 100.0);
}

TEST(Tracer, CriticalPathFollowsDependenceEdges) {
  // a[0,100) --(uid 1)--> c[150,250); b[0,200) independent.
  // c finishes last; path = c + a, wait = 50 (gap between a and c).
  Tracer t;
  const SpanId a = t.add_span(0, 0, TraceCategory::kCompute, "a", 0, 100);
  t.add_span(0, 1, TraceCategory::kCompute, "b", 0, 200);
  t.bind(1, a);
  const SpanId c = t.add_span(1, 0, TraceCategory::kCopy, "c", 150, 250);
  t.edge(1, c);
  const TraceSummary s = t.summarize(250);
  EXPECT_EQ(s.cp_spans, 2u);
  EXPECT_DOUBLE_EQ(s.cp_compute_ns, 100.0);
  EXPECT_DOUBLE_EQ(s.cp_copy_ns, 100.0);
  EXPECT_DOUBLE_EQ(s.cp_wait_ns, 50.0);
}

TEST(Tracer, CriticalPathResolvesAliases) {
  // The consumer edge names uid 2, which aliases to uid 1 bound to `a`.
  Tracer t;
  const SpanId a = t.add_span(0, 0, TraceCategory::kCompute, "a", 0, 100);
  t.bind(1, a);
  t.alias(2, 1);
  const SpanId c = t.add_span(0, 1, TraceCategory::kCompute, "c", 100, 150);
  t.edge(2, c);
  const TraceSummary s = t.summarize(150);
  EXPECT_EQ(s.cp_spans, 2u);
  EXPECT_DOUBLE_EQ(s.cp_wait_ns, 0.0);
}

TEST(Tracer, CriticalPathUsesResourceFifoEdges) {
  // Two back-to-back spans on one track with no explicit edge: the
  // second was gated by the resource, so both land on the path.
  Tracer t;
  t.add_span(0, 0, TraceCategory::kCompute, "a", 0, 100);
  t.add_span(0, 0, TraceCategory::kCompute, "b", 100, 180);
  const TraceSummary s = t.summarize(180);
  EXPECT_EQ(s.cp_spans, 2u);
  EXPECT_DOUBLE_EQ(s.cp_compute_ns, 180.0);
  EXPECT_DOUBLE_EQ(s.cp_wait_ns, 0.0);
}

TEST(Tracer, TopContributorsAggregateByNameStem) {
  Tracer t;
  SpanId prev = t.add_span(0, 0, TraceCategory::kCompute, "TF[0]", 0, 100);
  t.bind(1, prev);
  SpanId next = t.add_span(0, 0, TraceCategory::kCompute, "TF[1]", 100, 250);
  t.edge(1, next);
  const TraceSummary s = t.summarize(250);
  ASSERT_FALSE(s.cp_top.empty());
  EXPECT_EQ(s.cp_top[0].first, "TF");
  EXPECT_DOUBLE_EQ(s.cp_top[0].second, 250.0);
}

TEST(Tracer, WritesChromeJsonWithMetadataSpansAndInstants) {
  Tracer t;
  t.set_process_name(0, "node 0");
  t.declare_track(0, 0, "control");
  t.add_span(0, 0, TraceCategory::kCompute, "work \"x\"", 1000, 3000);
  t.add_instant(0, 0, "mark", 2000);
  const std::string path = ::testing::TempDir() + "/trace_test.json";
  ASSERT_TRUE(t.write_chrome_json(path));
  const std::string text = slurp(path);
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"compute\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":1.000"), std::string::npos);  // ns -> us
  EXPECT_NE(text.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("work \\\"x\\\""), std::string::npos);  // escaping
  std::remove(path.c_str());
}

TEST(Tracer, EmptyTracerWritesValidEmptyArray) {
  Tracer t;
  const std::string path = ::testing::TempDir() + "/trace_empty.json";
  ASSERT_TRUE(t.write_chrome_json(path));
  EXPECT_EQ(slurp(path), "[\n\n]\n");
  std::remove(path.c_str());
}

TEST(Tracer, UnwritablePathReportsFailure) {
  Tracer t;
  EXPECT_FALSE(t.write_chrome_json("/nonexistent-dir/trace.json"));
}

TEST(Tracer, AttributionRollsUpCopyAndSyncBySource) {
  Tracer t;
  // Source 7 "incr": one copy span (uid 1) and one sync span (uid 2).
  const SpanId cp = t.add_span(0, 0, TraceCategory::kCopy, "ghost", 0, 100);
  t.bind(1, cp);
  t.attribute(1, 7, "incr");
  const SpanId sy = t.add_span(kRuntimePid, 0, TraceCategory::kSync,
                               "barrier", 100, 130);
  t.bind(2, sy);
  t.attribute(2, 7, "incr");
  // Source 3 "init": a compute span is not copy/sync time, so it yields
  // a row only through its counted span.
  const SpanId w = t.add_span(0, 1, TraceCategory::kCopy, "fill", 0, 40);
  t.bind(3, w);
  t.attribute(3, 3, "init");

  const std::vector<TraceAttributionRow> rows = t.attribution();
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by total time descending: source 7 (130ns) before 3 (40ns).
  EXPECT_EQ(rows[0].source, 7u);
  EXPECT_EQ(rows[0].label, "incr");
  EXPECT_DOUBLE_EQ(rows[0].copy_ns, 100.0);
  EXPECT_DOUBLE_EQ(rows[0].sync_ns, 30.0);
  EXPECT_EQ(rows[0].spans, 2u);
  EXPECT_EQ(rows[1].source, 3u);
  EXPECT_DOUBLE_EQ(rows[1].copy_ns, 40.0);

  // summarize() carries the same rollup.
  const TraceSummary s = t.summarize(130);
  ASSERT_EQ(s.attribution.size(), 2u);
  EXPECT_EQ(s.attribution[0].source, 7u);
  EXPECT_NE(s.to_text().find("incr"), std::string::npos);
}

TEST(Tracer, AttributionFirstClaimWinsAndResolvesAliases) {
  Tracer t;
  const SpanId a = t.add_span(0, 0, TraceCategory::kCopy, "c", 0, 50);
  t.bind(1, a);
  t.alias(2, 1);
  // Attributing the same uid twice: the first claim wins.
  t.attribute(1, 4, "first");
  t.attribute(1, 9, "second");
  // Attributing through the alias resolves to the same span, which was
  // already claimed — it must not be double-counted or reassigned.
  t.attribute(2, 9, "second");
  const std::vector<TraceAttributionRow> rows = t.attribution();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].source, 4u);
  EXPECT_EQ(rows[0].label, "first");
  EXPECT_DOUBLE_EQ(rows[0].copy_ns, 50.0);
  EXPECT_EQ(rows[0].spans, 1u);
}

TEST(Tracer, AttributionOfUnboundUidIsDropped) {
  Tracer t;
  t.attribute(99, 1, "nothing");  // uid never bound to a span
  EXPECT_TRUE(t.attribution().empty());
}

TEST(Tracer, SummaryTextReportsCategoriesAndCriticalPath) {
  Tracer t;
  t.declare_track(0, 0, "core 0");
  t.add_span(0, 0, TraceCategory::kCompute, "TF[3]", 0, 1000000);
  const std::string text = t.summarize(2000000).to_text();
  EXPECT_NE(text.find("=== trace summary ==="), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("idle"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("TF"), std::string::npos);
}

}  // namespace
}  // namespace cr::support
