#include "support/trace.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <map>
#include <sstream>
#include <unordered_set>

#include "support/check.h"
#include "support/interval_set.h"

namespace cr::support {

const char* trace_category_name(TraceCategory c) {
  switch (c) {
    case TraceCategory::kCompute:
      return "compute";
    case TraceCategory::kCopy:
      return "copy";
    case TraceCategory::kSync:
      return "sync";
  }
  return "?";
}

SpanId Tracer::add_span(uint32_t pid, uint32_t tid, TraceCategory category,
                        std::string name, TraceTime start, TraceTime end) {
  CR_DCHECK(start <= end);
  const SpanId id = static_cast<SpanId>(spans_.size());
  spans_.push_back({pid, tid, category, start, end, std::move(name)});
  tracks_.try_emplace({pid, tid}, TrackInfo{"", pid != kRuntimePid});
  return id;
}

void Tracer::add_instant(uint32_t pid, uint32_t tid, std::string name,
                         TraceTime time) {
  instants_.push_back({pid, tid, time, std::move(name)});
}

void Tracer::declare_track(uint32_t pid, uint32_t tid, std::string name,
                           bool hardware) {
  TrackInfo& info = tracks_[{pid, tid}];
  info.name = std::move(name);
  info.hardware = hardware && pid != kRuntimePid;
}

void Tracer::set_process_name(uint32_t pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void Tracer::bind(uint64_t uid, SpanId span) {
  if (uid == 0 || span == kNoSpan) return;
  producer_[uid] = span;
}

void Tracer::alias(uint64_t derived, uint64_t original) {
  if (derived == 0 || original == 0 || derived == original) return;
  aliases_.emplace(derived, original);
}

void Tracer::edge(uint64_t uid, SpanId to) {
  if (uid == 0 || to == kNoSpan) return;
  edges_.emplace_back(uid, to);
}

void Tracer::attribute(uint64_t uid, uint32_t source,
                       const std::string& label) {
  if (uid == 0) return;
  attr_uids_.emplace(uid, source);
  attr_labels_.emplace(source, label);
}

uint64_t Tracer::resolve_alias(uint64_t uid) const {
  // Follow the alias chain until a bound producer or a fixed point; the
  // hop bound guards against accidental cycles.
  for (int hops = 0; hops < 64; ++hops) {
    if (producer_.count(uid)) return uid;
    auto it = aliases_.find(uid);
    if (it == aliases_.end()) return uid;
    uid = it->second;
  }
  return uid;
}

SpanId Tracer::producer_of(uint64_t uid) const {
  auto it = producer_.find(resolve_alias(uid));
  return it == producer_.end() ? kNoSpan : it->second;
}

std::unordered_map<SpanId, uint32_t> Tracer::span_sources() const {
  // Visit attributed uids in sorted order so the first-wins claim of a
  // span (several uids can resolve to one span through alias chains) is
  // deterministic across identical runs.
  std::vector<std::pair<uint64_t, uint32_t>> pairs(attr_uids_.begin(),
                                                   attr_uids_.end());
  std::sort(pairs.begin(), pairs.end());
  std::unordered_map<SpanId, uint32_t> out;
  for (const auto& [uid, source] : pairs) {
    const SpanId span = producer_of(uid);
    if (span != kNoSpan) out.emplace(span, source);
  }
  return out;
}

std::vector<TraceAttributionRow> Tracer::attribution() const {
  std::map<uint32_t, TraceAttributionRow> by_source;
  for (const auto& [span, source] : span_sources()) {
    const TraceSpan& s = spans_[span];
    TraceAttributionRow& row = by_source[source];
    row.source = source;
    const auto label = attr_labels_.find(source);
    if (label != attr_labels_.end()) row.label = label->second;
    const double dur = static_cast<double>(s.duration());
    if (s.category == TraceCategory::kSync) {
      row.sync_ns += dur;
    } else {
      row.copy_ns += dur;  // copy (and any compute issued on its behalf)
    }
    ++row.spans;
  }
  std::vector<TraceAttributionRow> rows;
  rows.reserve(by_source.size());
  for (auto& [source, row] : by_source) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const TraceAttributionRow& a, const TraceAttributionRow& b) {
              return a.total_ns() != b.total_ns()
                         ? a.total_ns() > b.total_ns()
                         : a.source < b.source;
            });
  return rows;
}

// ---------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double to_us(TraceTime t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 pid, json_escape(name).c_str());
  }
  for (const auto& [key, info] : tracks_) {
    if (info.name.empty()) continue;
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 key.pid, key.tid, json_escape(info.name).c_str());
  }
  const std::unordered_map<SpanId, uint32_t> sources = span_sources();
  for (SpanId i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u",
                 json_escape(s.name).c_str(),
                 trace_category_name(s.category), to_us(s.start),
                 to_us(s.duration()), s.pid, s.tid);
    const auto src = sources.find(i);
    if (src != sources.end()) {
      std::fprintf(f, ",\"args\":{\"src\":%u}", src->second);
    }
    std::fprintf(f, "}");
  }
  for (const TraceInstant& i : instants_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                 "\"pid\":%u,\"tid\":%u}",
                 json_escape(i.name).c_str(), to_us(i.time), i.pid, i.tid);
  }
  std::fprintf(f, "\n]\n");
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

// ---------------------------------------------------------------------
// Summary: category breakdown + critical path
// ---------------------------------------------------------------------

TraceSummary Tracer::summarize(TraceTime makespan) const {
  TraceSummary out;
  out.breakdown.makespan = makespan;
  out.attribution = attribution();

  // --- per-track category coverage (priority compute > copy > sync) ---
  struct Cover {
    IntervalSet compute, copy, sync;
  };
  std::unordered_map<TrackKey, Cover, TrackKeyHash> covers;
  for (const auto& [key, info] : tracks_) {
    if (info.hardware) covers.try_emplace(key);
  }
  for (const TraceSpan& s : spans_) {
    auto it = covers.find({s.pid, s.tid});
    if (it == covers.end()) continue;  // non-hardware (runtime) track
    const TraceTime lo = std::min(s.start, makespan);
    const TraceTime hi = std::min(s.end, makespan);
    if (lo >= hi) continue;
    switch (s.category) {
      case TraceCategory::kCompute:
        it->second.compute.add(lo, hi);
        break;
      case TraceCategory::kCopy:
        it->second.copy.add(lo, hi);
        break;
      case TraceCategory::kSync:
        it->second.sync.add(lo, hi);
        break;
    }
  }
  TraceBreakdown& b = out.breakdown;
  b.tracks = static_cast<uint32_t>(covers.size());
  b.total_ns = static_cast<double>(makespan) * b.tracks;
  for (const auto& [key, c] : covers) {
    const IntervalSet copy_eff = c.copy.set_subtract(c.compute);
    const IntervalSet busy_cc = c.compute.set_union(c.copy);
    const IntervalSet sync_eff = c.sync.set_subtract(busy_cc);
    const uint64_t compute = c.compute.size();
    const uint64_t copy = copy_eff.size();
    const uint64_t sync = sync_eff.size();
    b.compute_ns += static_cast<double>(compute);
    b.copy_ns += static_cast<double>(copy);
    b.sync_ns += static_cast<double>(sync);
    b.idle_ns += static_cast<double>(makespan - compute - copy - sync);
  }

  // --- critical path over the dependence edges ------------------------
  if (spans_.empty()) return out;

  std::vector<std::vector<SpanId>> preds(spans_.size());
  for (const auto& [uid, to] : edges_) {
    const SpanId from = producer_of(uid);
    if (from != kNoSpan && from != to) preds[to].push_back(from);
  }
  // Resource (FIFO) edges: on a serial track, a span that starts exactly
  // when its predecessor ends was gated by the resource.
  {
    std::unordered_map<TrackKey, std::vector<SpanId>, TrackKeyHash> by_track;
    for (SpanId i = 0; i < spans_.size(); ++i) {
      by_track[{spans_[i].pid, spans_[i].tid}].push_back(i);
    }
    for (auto& [key, ids] : by_track) {
      std::sort(ids.begin(), ids.end(), [&](SpanId a, SpanId b) {
        return spans_[a].start != spans_[b].start
                   ? spans_[a].start < spans_[b].start
                   : spans_[a].end < spans_[b].end;
      });
      for (size_t k = 1; k < ids.size(); ++k) {
        if (spans_[ids[k - 1]].end == spans_[ids[k]].start) {
          preds[ids[k]].push_back(ids[k - 1]);
        }
      }
    }
  }

  // Start at the span that finishes last; walk backward, always via the
  // latest-finishing predecessor (the binding constraint).
  SpanId cur = 0;
  for (SpanId i = 1; i < spans_.size(); ++i) {
    if (spans_[i].end > spans_[cur].end ||
        (spans_[i].end == spans_[cur].end &&
         spans_[i].duration() > spans_[cur].duration())) {
      cur = i;
    }
  }
  std::map<std::string, double> by_name;
  std::unordered_set<SpanId> visited;
  while (cur != kNoSpan && visited.insert(cur).second) {
    const TraceSpan& s = spans_[cur];
    ++out.cp_spans;
    const double dur = static_cast<double>(s.duration());
    switch (s.category) {
      case TraceCategory::kCompute:
        out.cp_compute_ns += dur;
        break;
      case TraceCategory::kCopy:
        out.cp_copy_ns += dur;
        break;
      case TraceCategory::kSync:
        out.cp_sync_ns += dur;
        break;
    }
    by_name[s.name.substr(0, s.name.find('['))] += dur;

    SpanId best = kNoSpan;
    for (SpanId p : preds[cur]) {
      if (visited.count(p)) continue;
      if (best == kNoSpan || spans_[p].end > spans_[best].end) best = p;
    }
    if (best == kNoSpan) {
      out.cp_wait_ns += static_cast<double>(s.start);  // gap from t=0
    } else {
      const TraceTime pe = spans_[best].end;
      out.cp_wait_ns += s.start > pe ? static_cast<double>(s.start - pe) : 0;
    }
    cur = best;
  }
  out.cp_top.assign(by_name.begin(), by_name.end());
  std::sort(out.cp_top.begin(), out.cp_top.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (out.cp_top.size() > 8) out.cp_top.resize(8);
  return out;
}

std::string TraceSummary::to_text() const {
  const TraceBreakdown& b = breakdown;
  std::ostringstream os;
  auto ms = [](double ns) { return ns / 1e6; };
  os << std::fixed;
  os << "=== trace summary ===\n";
  os << std::setprecision(3) << "makespan: " << ms(double(b.makespan))
     << " ms over " << b.tracks << " hardware tracks ("
     << ms(b.total_ns) << " track-ms of machine time)\n";
  os << "category breakdown (machine time):\n";
  auto row = [&](const char* name, double ns, double f) {
    os << "  " << std::left << std::setw(8) << name << std::right
       << std::setw(12) << std::setprecision(3) << ms(ns) << " ms  "
       << std::setw(5) << std::setprecision(1) << f * 100 << "%\n";
  };
  row("compute", b.compute_ns, b.compute_frac());
  row("copy", b.copy_ns, b.copy_frac());
  row("sync", b.sync_ns, b.sync_frac());
  row("idle", b.idle_ns, b.idle_frac());
  row("total", b.compute_ns + b.copy_ns + b.sync_ns + b.idle_ns, 1.0);
  const double cp_total =
      cp_compute_ns + cp_copy_ns + cp_sync_ns + cp_wait_ns;
  os << "critical path: " << cp_spans << " spans, "
     << std::setprecision(3) << ms(cp_total) << " ms ("
     << std::setprecision(1)
     << (b.makespan > 0 ? cp_total / double(b.makespan) * 100 : 0)
     << "% of makespan)\n";
  os << "  compute " << std::setprecision(3) << ms(cp_compute_ns)
     << " ms, copy " << ms(cp_copy_ns) << " ms, sync " << ms(cp_sync_ns)
     << " ms, wait/latency " << ms(cp_wait_ns) << " ms\n";
  if (!cp_top.empty()) {
    os << "  top path contributors:\n";
    for (const auto& [name, ns] : cp_top) {
      os << "    " << std::left << std::setw(24)
         << (name.empty() ? "(unnamed)" : name) << std::right
         << std::setw(12) << std::setprecision(3) << ms(ns) << " ms\n";
    }
  }
  if (!attribution.empty()) {
    os << "copy/sync attribution (by source statement):\n";
    size_t shown = 0;
    for (const TraceAttributionRow& r : attribution) {
      if (++shown > 10) break;
      std::ostringstream who;
      who << "#" << r.source << " " << (r.label.empty() ? "?" : r.label);
      os << "  " << std::left << std::setw(24) << who.str() << std::right
         << "  copy " << std::setw(10) << std::setprecision(3)
         << ms(r.copy_ns) << " ms  sync " << std::setw(10) << ms(r.sync_ns)
         << " ms  (" << r.spans << " spans)\n";
    }
  }
  return os.str();
}

}  // namespace cr::support
