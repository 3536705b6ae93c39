// Property test for the SPMD event loop on randomized small IR programs
// (the fuzz generator's region/partition/task soup): every run of a seed
// must replay the exact event order of the seed's reference run — not
// just the same final metrics — and attaching the witness must not move
// the timeline. The timeline tracer is the witness: every span (track,
// category, [start, end), name) and instant in recording order, which is
// execution order. The test once compared the worker counts of the
// multi-worker backend; the single event loop keeps the property.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "exec/implicit_exec.h"
#include "support/rng.h"
#include "support/trace.h"
#include "testing/random_program.h"

namespace cr::exec {
namespace {

using testing::RandomProgram;
using testing::make_random_program;

using SpanKey = std::tuple<uint32_t, uint32_t, support::TraceCategory,
                           support::TraceTime, support::TraceTime,
                           std::string>;
using InstantKey =
    std::tuple<uint32_t, uint32_t, support::TraceTime, std::string>;

struct WitnessedRun {
  std::vector<SpanKey> spans;
  std::vector<InstantKey> instants;
  uint64_t events = 0;
  ExecutionResult result;
};

WitnessedRun run_witnessed(uint64_t seed, bool witness = true) {
  support::Rng rng(seed * 9176 + 3);
  const uint32_t nodes = 2 + static_cast<uint32_t>(rng.next_below(3));
  const uint64_t colors = nodes + rng.next_below(nodes + 1);

  CostModel cost;
  cost.track_dependences = false;
  rt::Runtime rt(runtime_config(nodes, 3, cost, /*real_data=*/false));
  support::Rng rng_prog = rng.split(1);
  RandomProgram rp = make_random_program(rt.forest(), rng_prog, colors);

  ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = ExecMode::kSpmd;
  PreparedRun run = prepare(rt, rp.program, cfg);
  support::Tracer tracer;
  if (witness) rt.sim().set_tracer(&tracer);
  WitnessedRun out;
  out.result = run.run();
  rt.sim().set_tracer(nullptr);
  out.events = rt.sim().events_processed();
  for (const support::TraceSpan& s : tracer.spans()) {
    out.spans.emplace_back(s.pid, s.tid, s.category, s.start, s.end, s.name);
  }
  for (const support::TraceInstant& i : tracer.instants()) {
    out.instants.emplace_back(i.pid, i.tid, i.time, i.name);
  }
  return out;
}

// Index of the first entry where `a` and `b` differ (the shorter length
// when one is a prefix of the other), or -1 when they are equal.
template <typename T>
long first_mismatch(const std::vector<T>& a, const std::vector<T>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return static_cast<long>(i);
  }
  if (a.size() != b.size()) {
    return static_cast<long>(std::min(a.size(), b.size()));
  }
  return -1;
}

class ParallelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelProperty, WorkerCountsReplayIdenticalEventOrders) {
  const uint64_t seed = GetParam();
  const WitnessedRun ref = run_witnessed(seed);
  ASSERT_GT(ref.events, 0u) << "seed " << seed << ": nothing executed";
  ASSERT_FALSE(ref.spans.empty()) << "seed " << seed << ": nothing traced";

  const WitnessedRun res = run_witnessed(seed);
  EXPECT_EQ(res.events, ref.events) << "seed " << seed;
  EXPECT_EQ(first_mismatch(res.spans, ref.spans), -1) << "seed " << seed;
  EXPECT_EQ(first_mismatch(res.instants, ref.instants), -1)
      << "seed " << seed;
  EXPECT_EQ(res.result.makespan_ns, ref.result.makespan_ns)
      << "seed " << seed;
  EXPECT_EQ(res.result.metrics, ref.result.metrics) << "seed " << seed;

  // The witness is passive: an unobserved run reaches the same end.
  const WitnessedRun bare = run_witnessed(seed, /*witness=*/false);
  EXPECT_EQ(bare.events, ref.events) << "seed " << seed;
  EXPECT_EQ(bare.result.makespan_ns, ref.result.makespan_ns)
      << "seed " << seed;
  EXPECT_EQ(bare.result.metrics, ref.result.metrics) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelProperty,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace cr::exec
