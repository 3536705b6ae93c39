// Virtual-time structured tracing: the observability layer under every
// simulator/runtime/executor component.
//
// A Tracer records three kinds of facts about a run:
//
//  - spans: categorized busy intervals [start, end) on a *track* (a
//    simulated hardware resource: one core, one NIC, one memory port —
//    or the synthetic "runtime" track for barriers and collectives);
//  - instants: point markers (barrier arrivals, triggers);
//  - dependence edges: which span's completion gated which other span's
//    start, expressed through the simulator's event identities (uids).
//
// From these it derives the two profiling artifacts the paper's
// evaluation leans on (Figs. 6-9): a Chrome trace_event JSON file (one
// "process" per node, one "thread" per track; open in chrome://tracing
// or Perfetto) and an aggregated text report with a per-category
// machine-time breakdown (compute / copy / sync / idle, summing exactly
// to tracks x makespan) plus a longest-path (critical path) walk over
// the recorded dependence edges.
//
// Tracing is strictly passive: recording observes virtual time, never
// advances it, so an instrumented run's timeline is bit-identical to an
// uninstrumented one. The disabled path is a null-pointer check at every
// hook site; no strings are built and nothing is stored.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cr::support {

// Mirrors sim::Time (virtual nanoseconds) without depending on sim/.
using TraceTime = uint64_t;

using SpanId = uint32_t;
inline constexpr SpanId kNoSpan = UINT32_MAX;

// Track addressing: pid = node (kRuntimePid for the synthetic runtime
// track), tid = core index, or one of the reserved per-node resources.
inline constexpr uint32_t kRuntimePid = UINT32_MAX;
inline constexpr uint32_t kNicTid = 1000000;  // per-node NIC injection port
inline constexpr uint32_t kMemTid = 1000001;  // per-node intra-node copies

enum class TraceCategory : uint8_t { kCompute = 0, kCopy = 1, kSync = 2 };
const char* trace_category_name(TraceCategory c);

// Label attached by a caller to a busy interval it schedules (a task on
// a processor, a message on the NIC). An empty tag records a span with a
// generic name.
struct TraceTag {
  TraceCategory category = TraceCategory::kCompute;
  std::string name;
  bool empty() const { return name.empty(); }
};

struct TraceSpan {
  uint32_t pid = 0;
  uint32_t tid = 0;
  TraceCategory category = TraceCategory::kCompute;
  TraceTime start = 0;
  TraceTime end = 0;
  std::string name;
  TraceTime duration() const { return end - start; }
};

struct TraceInstant {
  uint32_t pid = 0;
  uint32_t tid = 0;
  TraceTime time = 0;
  std::string name;
};

// Per-category machine-time totals. Overlapping spans on one track are
// claimed once, in priority order compute > copy > sync, so the four
// buckets partition tracks x makespan exactly.
struct TraceBreakdown {
  double compute_ns = 0;
  double copy_ns = 0;
  double sync_ns = 0;
  double idle_ns = 0;
  double total_ns = 0;  // = makespan * tracks
  uint32_t tracks = 0;
  TraceTime makespan = 0;
  double compute_frac() const { return frac(compute_ns); }
  double copy_frac() const { return frac(copy_ns); }
  double sync_frac() const { return frac(sync_ns); }
  double idle_frac() const { return frac(idle_ns); }

 private:
  double frac(double v) const { return total_ns > 0 ? v / total_ns : 0; }
};

// Copy/sync virtual time attributed to one user source statement (see
// ir::Provenance; the executors attribute runtime spans through the
// event uids of the operations they issue).
struct TraceAttributionRow {
  uint32_t source = 0;  // source statement id
  std::string label;    // its label (loop var / task name)
  double copy_ns = 0;   // attributed copy span time
  double sync_ns = 0;   // attributed sync span time
  uint64_t spans = 0;   // attributed span count
  double total_ns() const { return copy_ns + sync_ns; }
};

struct TraceSummary {
  TraceBreakdown breakdown;

  // Critical path: the longest dependence chain ending at the span that
  // finishes last. Wait is time on the path not covered by any span
  // (network latency, barrier gaps, queueing).
  double cp_compute_ns = 0;
  double cp_copy_ns = 0;
  double cp_sync_ns = 0;
  double cp_wait_ns = 0;
  size_t cp_spans = 0;
  // Top contributors on the path, aggregated by name stem (the part
  // before any "[color]" suffix), sorted by time descending.
  std::vector<std::pair<std::string, double>> cp_top;

  // Copy/sync time per attributed source statement, sorted by total
  // time descending (empty when nothing was attributed).
  std::vector<TraceAttributionRow> attribution;

  std::string to_text() const;
};

class Tracer {
 public:
  // --- recording (called from instrumentation hooks) -------------------

  SpanId add_span(uint32_t pid, uint32_t tid, TraceCategory category,
                  std::string name, TraceTime start, TraceTime end);
  void add_instant(uint32_t pid, uint32_t tid, std::string name,
                   TraceTime time);

  // Names a track (and whether it is hardware, i.e. counted in the idle
  // accounting); tracks also spring into existence when a span lands on
  // them, defaulting to hardware unless pid == kRuntimePid.
  void declare_track(uint32_t pid, uint32_t tid, std::string name,
                     bool hardware = true);
  void set_process_name(uint32_t pid, std::string name);

  // --- dependence bookkeeping ------------------------------------------
  // Keys are simulator event uids (sim::Event::uid). uid 0 (the
  // no-event) is ignored everywhere.

  // `span`'s completion triggers the event `uid`.
  void bind(uint64_t uid, SpanId span);
  // `derived` triggers because `original` did (merge resolution, user
  // events chained off internal completions).
  void alias(uint64_t derived, uint64_t original);
  // The producer of event `uid` (resolved through aliases at summary
  // time) gated the start of `to`.
  void edge(uint64_t uid, SpanId to);

  // Attribute the span producing (or aliased to) event `uid` to user
  // source statement `source` (labelled `label`). Resolution to spans
  // happens at summary time; first attribution of a uid wins.
  void attribute(uint64_t uid, uint32_t source, const std::string& label);

  // --- inspection / artifacts ------------------------------------------

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceInstant>& instants() const { return instants_; }

  // Chrome trace_event JSON ("X" spans, "i" instants, "M" metadata).
  // Timestamps are microseconds as trace viewers expect. Returns false
  // when the file cannot be opened or anything written to it was lost.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

  // Aggregate breakdown + critical path for a run that ended at
  // `makespan` virtual ns.
  TraceSummary summarize(TraceTime makespan) const;

  // Just the per-source copy/sync rollup (also included in summarize()).
  std::vector<TraceAttributionRow> attribution() const;

 private:
  struct TrackKey {
    uint32_t pid = 0;
    uint32_t tid = 0;
    friend bool operator==(const TrackKey&, const TrackKey&) = default;
  };
  struct TrackKeyHash {
    size_t operator()(const TrackKey& k) const {
      return (static_cast<size_t>(k.pid) << 32) ^ k.tid;
    }
  };
  struct TrackInfo {
    std::string name;
    bool hardware = true;
  };
  uint64_t resolve_alias(uint64_t uid) const;
  SpanId producer_of(uint64_t uid) const;
  // Deterministic span -> source-statement resolution of attr_uids_
  // (uids visited in sorted order, first claim of a span wins).
  std::unordered_map<SpanId, uint32_t> span_sources() const;

  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
  std::unordered_map<TrackKey, TrackInfo, TrackKeyHash> tracks_;
  std::unordered_map<uint32_t, std::string> process_names_;
  std::unordered_map<uint64_t, SpanId> producer_;   // event uid -> span
  std::unordered_map<uint64_t, uint64_t> aliases_;  // derived -> original
  std::vector<std::pair<uint64_t, SpanId>> edges_;  // pre uid -> consumer
  std::unordered_map<uint64_t, uint32_t> attr_uids_;  // event uid -> source
  std::unordered_map<uint32_t, std::string> attr_labels_;  // source -> label
};

}  // namespace cr::support
