// The perf regression gate: bench_diff must pass a self-diff exactly,
// flag a synthetic 10% makespan regression at the default 5% threshold,
// and refuse to pass when a configuration silently disappears.
#include "exec/bench_diff.h"

#include <gtest/gtest.h>

namespace cr::exec {
namespace {

const char* kBaseline = R"({
  "app": "stencil",
  "series": [
    {"name": "spmd", "points": [
      {"nodes": 1, "virtual_seconds": 0.001, "makespan_ns": 1000000,
       "metrics": {"exec.bytes_moved": 4096, "exec.messages": 100,
                   "sim.events_processed": 5000},
       "attribution": []},
      {"nodes": 2, "virtual_seconds": 0.001, "makespan_ns": 1100000,
       "metrics": {"exec.bytes_moved": 8192, "exec.messages": 260,
                   "sim.events_processed": 9000},
       "attribution": []}
    ]},
    {"name": "implicit", "points": [
      {"nodes": 1, "virtual_seconds": 0.002, "makespan_ns": 2000000,
       "metrics": {"exec.bytes_moved": 4096}, "attribution": []}
    ]}
  ]
})";

TEST(BenchDiff, SelfDiffPasses) {
  const DiffResult r = bench_diff(kBaseline, kBaseline, DiffOptions{});
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_TRUE(r.errors.empty());
  EXPECT_FALSE(r.lines.empty());  // makespans were actually compared
}

TEST(BenchDiff, TenPercentMakespanRegressionFails) {
  std::string current = kBaseline;
  // Bump the 2-node spmd makespan by 10%: 1100000 -> 1210000.
  const std::string old_val = "\"makespan_ns\": 1100000";
  const size_t pos = current.find(old_val);
  ASSERT_NE(pos, std::string::npos);
  current.replace(pos, old_val.size(), "\"makespan_ns\": 1210000");

  const DiffResult r = bench_diff(kBaseline, current, DiffOptions{});
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.regressions.size(), 1u) << r.to_text();
  EXPECT_NE(r.regressions[0].find("makespan_ns"), std::string::npos);
  EXPECT_NE(r.regressions[0].find("spmd"), std::string::npos);
  EXPECT_TRUE(r.errors.empty());
}

TEST(BenchDiff, WithinThresholdPasses) {
  std::string current = kBaseline;
  // +4% stays under the default 5% gate.
  const std::string old_val = "\"makespan_ns\": 1000000";
  const size_t pos = current.find(old_val);
  ASSERT_NE(pos, std::string::npos);
  current.replace(pos, old_val.size(), "\"makespan_ns\": 1040000");
  const DiffResult r = bench_diff(kBaseline, current, DiffOptions{});
  EXPECT_TRUE(r.ok()) << r.to_text();
}

TEST(BenchDiff, AllMetricsGate) {
  std::string current = kBaseline;
  const std::string old_val = "\"exec.messages\": 100";
  const size_t pos = current.find(old_val);
  ASSERT_NE(pos, std::string::npos);
  current.replace(pos, old_val.size(), "\"exec.messages\": 150");
  // Ungated by default...
  EXPECT_TRUE(bench_diff(kBaseline, current, DiffOptions{}).ok());
  // ...flagged when every metric is gated.
  DiffOptions all;
  all.all_pct = 5.0;
  const DiffResult r = bench_diff(kBaseline, current, all);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.regressions.empty());
  EXPECT_NE(r.regressions[0].find("exec.messages"), std::string::npos);
}

TEST(BenchDiff, PerMetricThresholdOverride) {
  std::string current = kBaseline;
  const std::string old_val = "\"exec.bytes_moved\": 4096, \"exec.messages\"";
  const size_t pos = current.find(old_val);
  ASSERT_NE(pos, std::string::npos);
  current.replace(pos, old_val.size(),
                  "\"exec.bytes_moved\": 4300, \"exec.messages\"");
  DiffOptions opt;
  opt.metric_pct["exec.bytes_moved"] = 1.0;  // ~+5% > 1% gate
  const DiffResult r = bench_diff(kBaseline, current, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.regressions.empty());
  EXPECT_NE(r.regressions[0].find("exec.bytes_moved"), std::string::npos);
}

TEST(BenchDiff, MissingPointIsAnError) {
  std::string current = kBaseline;
  // Drop the whole implicit series from the current run.
  const size_t pos = current.find(",\n    {\"name\": \"implicit\"");
  ASSERT_NE(pos, std::string::npos);
  const size_t end = current.rfind("]}");  // last point list close
  ASSERT_NE(end, std::string::npos);
  current = current.substr(0, pos) + "\n  ]\n}";
  const DiffResult r = bench_diff(kBaseline, current, DiffOptions{});
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("implicit"), std::string::npos);
}

TEST(BenchDiff, ZeroBaselineRegressesOnAnyGrowth) {
  const char* base = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"check.races":0}}]}]})";
  const char* cur = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"check.races":2}}]}]})";
  DiffOptions opt;
  opt.all_pct = 100.0;  // even a huge relative gate can't excuse 0 -> 2
  const DiffResult r = bench_diff(base, cur, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.regressions.empty());
  EXPECT_NE(r.regressions[0].find("check.races"), std::string::npos);
}

TEST(BenchDiff, ZeroBaselineWithinEpsilonPasses) {
  // base == 0 used to gate as `cur > 0`: any float dust (a tiny gauge
  // value, a rounding residue) flagged a regression. The absolute
  // epsilon fallback tolerates near-zero noise while still comparing.
  const char* base = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"exec.control_busy_frac":0}}]}]})";
  const char* cur = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,
     "metrics":{"exec.control_busy_frac":1e-12}}]}]})";
  DiffOptions opt;
  opt.all_pct = 5.0;
  const DiffResult r = bench_diff(base, cur, opt);
  EXPECT_TRUE(r.ok()) << r.to_text();
  // Identical zeros pass too, and the comparison is reported.
  const DiffResult same = bench_diff(base, base, opt);
  EXPECT_TRUE(same.ok()) << same.to_text();
  EXPECT_EQ(same.lines.size(), 2u);  // makespan + the zero metric
}

TEST(BenchDiff, ZeroBaselineEpsilonIsConfigurable) {
  const char* base = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"m":0}}]}]})";
  const char* cur = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"m":0.5}}]}]})";
  DiffOptions opt;
  opt.all_pct = 5.0;
  opt.zero_abs_eps = 1.0;  // 0 -> 0.5 tolerated at this epsilon
  EXPECT_TRUE(bench_diff(base, cur, opt).ok());
  opt.zero_abs_eps = 0.1;  // ...but not at this one
  EXPECT_FALSE(bench_diff(base, cur, opt).ok());
}

TEST(BenchDiff, NegativeMetricIsAnError) {
  // A negative value in a gated metric is an unmeasured sentinel or
  // corruption; relative thresholds on it are meaningless and must not
  // silently pass (cur > base * 1.05 is trivially false for base = -1).
  const char* base = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"m":-1}}]}]})";
  const char* cur = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"m":-1}}]}]})";
  DiffOptions opt;
  opt.all_pct = 5.0;
  const DiffResult r = bench_diff(base, cur, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("negative"), std::string::npos);
}

TEST(BenchDiff, NegativeHostSecondsIsAnError) {
  // The historic -1.0 "unmeasured" sentinel must never be treated as a
  // valid host time, on either side of the diff.
  const char* good = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"analysis":{"host_seconds":0.5}}]}]})";
  const char* bad = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"analysis":{"host_seconds":-1.0}}]}]})";
  EXPECT_TRUE(bench_diff(good, good, DiffOptions{}).ok());
  const DiffResult r = bench_diff(good, bad, DiffOptions{});
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("host_seconds"), std::string::npos);
  // ...and a null host time (the unmeasured serialization) is fine.
  const char* null_hs = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"analysis":{"host_seconds":null}}]}]})";
  EXPECT_TRUE(bench_diff(good, null_hs, DiffOptions{}).ok());
}

TEST(BenchDiff, HostMetricsGateOnlyViaHostPct) {
  // Wall-clock ("host.") metrics are real measurements but noisy: they
  // must never be covered by the virtual-time all_pct gate, only by the
  // dedicated (typically looser) host_pct threshold.
  const char* base = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,
     "metrics":{"host.run_seconds":1.0,"sim.events_processed":500}}]}]})";
  const char* cur = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,
     "metrics":{"host.run_seconds":1.5,"sim.events_processed":500}}]}]})";
  // +50% host time: invisible to the default options and to all_pct...
  EXPECT_TRUE(bench_diff(base, cur, DiffOptions{}).ok());
  DiffOptions all;
  all.all_pct = 5.0;
  EXPECT_TRUE(bench_diff(base, cur, all).ok());
  // ...flagged once the host gate is on.
  DiffOptions host;
  host.host_pct = 25.0;
  const DiffResult r = bench_diff(base, cur, host);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.regressions.empty());
  EXPECT_NE(r.regressions[0].find("host.run_seconds"), std::string::npos);
  // +50% is fine under a looser gate.
  host.host_pct = 75.0;
  EXPECT_TRUE(bench_diff(base, cur, host).ok());
}

TEST(BenchDiff, BarrierWaitRegressionCaughtOnlyByHostGate) {
  // Any host.* key rides the same routing as host.run_seconds: a
  // doubled barrier-wait time — a host-side regression that is
  // invisible in virtual time — must be caught by --host, and only by
  // --host. Virtual-time quantities in the same point stay identical,
  // so the default and all_pct gates have nothing to flag.
  const char* base = R"({"series":[{"name":"spmd","points":[
    {"nodes":4,"makespan_ns":1000000,
     "metrics":{"host.phase.barrier_wait_ns":1000000,
                "host.phase.lane_drain_ns":4000000,
                "host.profile.serial_fraction":0.2,
                "sim.events_processed":5000,
                "sim.windows":40}}]}]})";
  const char* cur = R"({"series":[{"name":"spmd","points":[
    {"nodes":4,"makespan_ns":1000000,
     "metrics":{"host.phase.barrier_wait_ns":2200000,
                "host.phase.lane_drain_ns":4000000,
                "host.profile.serial_fraction":0.2,
                "sim.events_processed":5000,
                "sim.windows":40}}]}]})";
  EXPECT_TRUE(bench_diff(base, cur, DiffOptions{}).ok());
  DiffOptions all;
  all.all_pct = 5.0;
  EXPECT_TRUE(bench_diff(base, cur, all).ok());
  DiffOptions host;
  host.host_pct = 50.0;
  const DiffResult r = bench_diff(base, cur, host);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.regressions.size(), 1u) << r.to_text();
  EXPECT_NE(r.regressions[0].find("host.phase.barrier_wait_ns"),
            std::string::npos);
  // The untouched host keys pass the same gate.
  const char* lane_only = R"({"series":[{"name":"spmd","points":[
    {"nodes":4,"makespan_ns":1000000,
     "metrics":{"host.phase.barrier_wait_ns":1000000,
                "host.phase.lane_drain_ns":4100000,
                "host.profile.serial_fraction":0.2,
                "sim.events_processed":5000,
                "sim.windows":40}}]}]})";
  EXPECT_TRUE(bench_diff(base, lane_only, host).ok());
}

TEST(BenchDiff, InfoMetricsNeverGate) {
  // "info." keys are context (rates, rep counts), not costs: neither
  // all_pct nor host_pct may gate them. An explicit per-metric override
  // still can — the operator asked for that key by name.
  const char* base = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"info.reps":3}}]}]})";
  const char* cur = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":100,"metrics":{"info.reps":9}}]}]})";
  DiffOptions opt;
  opt.all_pct = 5.0;
  opt.host_pct = 5.0;
  EXPECT_TRUE(bench_diff(base, cur, opt).ok());
  opt.metric_pct["info.reps"] = 50.0;
  EXPECT_FALSE(bench_diff(base, cur, opt).ok());
}

// A corrupt baseline must not switch a gate off: a makespan_ns that is
// missing or not a number, and a metric that is not a number, are
// errors even against a current run that regressed badly.
TEST(BenchDiff, NonNumericBaselineMakespanIsAnError) {
  const std::string cur = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":999999999,"metrics":{}}]}]})";
  for (const char* base : {
           R"({"series":[{"name":"s","points":[
             {"nodes":1,"makespan_ns":"oops","metrics":{}}]}]})",
           R"({"series":[{"name":"s","points":[
             {"nodes":1,"metrics":{}}]}]})"}) {
    const DiffResult r = bench_diff(base, cur, DiffOptions{});
    EXPECT_FALSE(r.ok()) << base;
    ASSERT_EQ(r.errors.size(), 1u) << r.to_text();
    EXPECT_NE(r.errors[0].find("makespan_ns"), std::string::npos);
  }
}

TEST(BenchDiff, NonNumericBaselineMetricIsAnError) {
  const std::string base = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":"oops","metrics":{"sim.events":"x"}}]}]})";
  const std::string cur = R"({"series":[{"name":"s","points":[
    {"nodes":1,"makespan_ns":999999999,"metrics":{"sim.events":5}}]}]})";
  const DiffResult r = bench_diff(base, cur, DiffOptions{});
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.errors.size(), 2u) << r.to_text();
  EXPECT_NE(r.errors[1].find("\"sim.events\" is not a number"),
            std::string::npos)
      << r.to_text();
}

TEST(BenchDiff, MalformedJsonIsAnError) {
  const DiffResult r = bench_diff("{not json", kBaseline, DiffOptions{});
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("baseline"), std::string::npos);
}

TEST(BenchDiff, MissingFileIsAnError) {
  const DiffResult r = bench_diff_files("/nonexistent/base.json",
                                        "/nonexistent/cur.json",
                                        DiffOptions{});
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.errors.empty());
}

}  // namespace
}  // namespace cr::exec
