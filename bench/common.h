// Shared driver for the figure-regeneration benches: weak-scaling sweeps
// of the Regent (with/without CR) executions and the app-specific MPI
// reference models, reported in the paper's throughput-per-node form.
//
// Command lines are described declaratively with a FlagSet (usage text
// is generated from the registrations); per-process state lives in a
// Bench object the main function owns — there are no mutable globals.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/implicit_exec.h"
#include "exec/report.h"
#include "rt/runtime.h"
#include "support/trace.h"

namespace cr::bench {

// --- declarative command-line flags -----------------------------------

// A set of `--name` / `--name=<value>` flags. Registrations carry the
// value spec and help text, so usage output is generated rather than
// maintained by hand.
class FlagSet {
 public:
  // `value` receives the text after '='; `has_value` distinguishes
  // `--flag=` (empty value) from a bare `--flag`. Return false to
  // reject the argument.
  using Handler = std::function<bool(const std::string& value,
                                     bool has_value)>;

  // `value_spec` is the usage-text suffix: "" for a plain switch,
  // "=<path>" for a required value, "[=<path>]" for an optional one.
  void add(std::string name, std::string value_spec, std::string help,
           Handler handler) {
    flags_.push_back({std::move(name), std::move(value_spec),
                      std::move(help), std::move(handler)});
  }

  // A plain presence switch.
  void add_flag(std::string name, std::string help, bool* out) {
    add(std::move(name), "", std::move(help),
        [out](const std::string&, bool has_value) {
          if (has_value) return false;
          *out = true;
          return true;
        });
  }

  // A string flag whose value may be omitted: bare `--name` (or an
  // empty `--name=`) stores `bare_value`.
  void add_string(std::string name, std::string value_name,
                  std::string help, std::string* out,
                  std::string bare_value) {
    add(std::move(name), "[=" + value_name + "]", std::move(help),
        [out, bare_value](const std::string& value, bool has_value) {
          *out = (has_value && !value.empty()) ? value : bare_value;
          return true;
        });
  }

  // Parses all of `value` as a decimal T. Out-of-range input is
  // rejected, never wrapped or saturated.
  template <typename T>
  static bool parse_int(const std::string& value, T* out) {
    const char* end = value.data() + value.size();
    T v{};
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (value.empty() || ec != std::errc{} || ptr != end) return false;
    *out = v;
    return true;
  }

  std::string usage(const char* argv0) const {
    std::string out = "usage: ";
    out += argv0;
    for (const Flag& f : flags_) {
      out += " [--" + f.name + f.value_spec + "]";
    }
    out += "\n";
    for (const Flag& f : flags_) {
      char line[256];
      std::snprintf(line, sizeof line, "  --%-24s %s\n",
                    (f.name + f.value_spec).c_str(), f.help.c_str());
      out += line;
    }
    return out;
  }

  // Parses every argument; on an unknown flag or a bad value, prints
  // the offender plus the generated usage to stderr and returns false.
  bool parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!parse_one(arg)) {
        std::fprintf(stderr, "%s: bad argument '%s'\n%s", argv[0],
                     arg.c_str(), usage(argv[0]).c_str());
        return false;
      }
    }
    return true;
  }

 private:
  struct Flag {
    std::string name;
    std::string value_spec;
    std::string help;
    Handler handler;
  };

  bool parse_one(const std::string& arg) const {
    if (arg.rfind("--", 0) != 0) return false;
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      has_value = true;
    }
    for (const Flag& f : flags_) {
      if (f.name == name) return f.handler(value, has_value);
    }
    return false;
  }

  std::vector<Flag> flags_;
};

// --- the standard bench options ---------------------------------------

// Which flags a bench takes beyond the run flags every bench honours:
// a figure sweep adds the artifact flags, and a sweep with a
// mapper-matrix scenario (fig6, fig9) also adds --mapper-matrix. A flag
// a bench does not take is rejected as a bad argument (exit 2).
enum class BenchKind { kRun, kSweep, kMatrixSweep };

struct BenchOptions {
  // Prefix for trace artifacts; empty means tracing is disabled (the
  // default: runs record nothing and pay only a null-pointer check).
  std::string trace_path;
  // --selftime: profile the *host-side* dynamic analysis — host
  // wall-clock and the rt.dep.* counters per point, written to a
  // BENCH_analysis.json artifact. Purely observational: stdout and the
  // virtual makespans are identical either way.
  bool selftime = false;
  std::string analysis_path = "BENCH_analysis.json";
  // --check: run the cross-shard happens-before race checker on every
  // engine run (host-side; virtual makespans are unchanged).
  bool check = false;
  // --check-mutate=<id>: delete/weaken sync op <id> (ir::SyncId) in the
  // SPMD runs; the checker must then report a race. Implies --check.
  // ir::kNoSyncId means no mutation.
  ir::SyncId check_mutate = ir::kNoSyncId;
  // --metrics[=<path>]: write every recorded point's registry snapshot
  // (ExecutionResult::metrics) plus makespan and attribution as one
  // BENCH_metrics JSON document, the format of the committed
  // bench/baselines. Empty = off.
  std::string metrics_path;
  // --mapper=<name>: placement policy for every engine run, one of
  // rt::mapper_names() ("default", "balanced", "adversarial"); any other
  // name is a bad argument.
  std::string mapper = "default";
  // --mapper-matrix: instead of the weak-scaling sweep, run the fixed
  // heterogeneous/faulty-node scenario once per policy (default,
  // balanced, adversarial) and emit one BENCH_mapper.<app>.<policy>.json
  // artifact per cell.
  bool mapper_matrix = false;
  // Registers the run flags every bench honours (--check,
  // --check-mutate, --mapper) plus those `kind` adds: the
  // figure sweeps' artifact flags (--trace, --metrics, --selftime) and
  // --mapper-matrix. Default artifact names carry the app name so
  // several benches run from one directory (CI) never clobber each
  // other's output.
  void register_flags(FlagSet& flags, const std::string& app,
                      BenchKind kind) {
    flags.add_flag("check", "run the happens-before race checker",
                   &check);
    std::string policies;
    for (const std::string& name : rt::mapper_names()) {
      policies += (policies.empty() ? "" : ", ") + name;
    }
    flags.add("mapper", "=<name>", "placement policy (" + policies + ")",
              [this](const std::string& value, bool) {
                const std::vector<std::string>& names = rt::mapper_names();
                if (std::find(names.begin(), names.end(), value) ==
                    names.end()) {
                  return false;
                }
                mapper = value;
                return true;
              });
    flags.add("check-mutate", "=<sync-id>",
              "delete sync op <sync-id>; expect the checker to race",
              [this](const std::string& value, bool) {
                ir::SyncId id = ir::kNoSyncId;
                if (!FlagSet::parse_int(value, &id) || id == ir::kNoSyncId) {
                  return false;
                }
                check_mutate = id;
                check = true;
                return true;
              });
    if (kind == BenchKind::kRun) return;
    analysis_path = "BENCH_analysis." + app + ".json";
    flags.add_string("trace", "<path>",
                     "write Chrome trace JSON + breakdown per run",
                     &trace_path, "trace." + app + ".json");
    flags.add_string("metrics", "<path>",
                     "write per-point metrics snapshot JSON",
                     &metrics_path, "BENCH_metrics." + app + ".json");
    flags.add("selftime", "[=<path>]",
              "profile host-side dynamic analysis (JSON artifact)",
              [this](const std::string& value, bool has_value) {
                selftime = true;
                if (has_value && !value.empty()) analysis_path = value;
                return true;
              });
    if (kind != BenchKind::kMatrixSweep) return;
    flags.add_flag("mapper-matrix",
                   "run the heterogeneous scenario across all policies "
                   "and write one artifact per (app, mapper) cell",
                   &mapper_matrix);
  }
};

// --- run records -----------------------------------------------------

// One engine run: its result and, under --trace, its timeline summary.
struct RunRecord {
  exec::ExecutionResult result;
  std::optional<support::TraceSummary> trace;
};

// One sweep point: the steady-state virtual seconds of the measured
// window and the record of the larger-step engine run behind them
// (absent for the analytic reference series).
struct PointRecord {
  double seconds = 0;
  std::optional<RunRecord> run;
};

// --- the per-process bench driver -------------------------------------

// Owns the parsed options, the checker tallies and the artifact-failure
// flag. Construct one in main() and thread it by reference; every run
// returns its own record, so the driver keeps no per-run state.
class Bench {
 public:
  // `app` scopes the default artifact filenames (trace.<app>.json,
  // BENCH_analysis.<app>.json, BENCH_metrics.<app>.json). `kind` picks
  // the flags beyond the run flags (see BenchKind); --mapper-matrix
  // writes its own artifacts, so it rejects --trace, --metrics and
  // --selftime.
  Bench(std::string app, int argc, char** argv, BenchKind kind)
      : app_(std::move(app)) {
    options_.register_flags(flags_, app_, kind);
    if (!flags_.parse(argc, argv)) std::exit(2);
    if (!options_.mapper_matrix) return;
    const char* conflict = !options_.trace_path.empty()     ? "trace"
                           : !options_.metrics_path.empty() ? "metrics"
                           : options_.selftime              ? "selftime"
                                                            : nullptr;
    if (conflict != nullptr) {
      std::fprintf(stderr,
                   "%s: --mapper-matrix cannot be combined with --%s\n",
                   argv[0], conflict);
      std::exit(2);
    }
  }

  const BenchOptions& options() const { return options_; }
  const std::string& app() const { return app_; }

  // The ExecConfig for one engine run, honoring --trace, --check and
  // --check-mutate (the mutation applies to SPMD runs only; sync ids do
  // not exist before sync insertion).
  exec::ExecConfig config(exec::ExecMode mode, const exec::CostModel& cost,
                          passes::PipelineOptions pipeline = {}) const {
    exec::ExecConfig cfg;
    cfg.pipeline = pipeline;
    cfg.cost = cost;
    cfg.mode = mode;
    cfg.trace = !options_.trace_path.empty();
    cfg.check = options_.check;
    if (mode == exec::ExecMode::kSpmd) {
      cfg.check_mutate = options_.check_mutate;
    }
    cfg.mapper.name = options_.mapper;
    return cfg;
  }

  // Tallies the checker verdict of an engine run (no-op when the run
  // was not checked). Every engine run of a bench goes through here.
  void tally(const exec::ExecutionResult& r) {
    if (r.check == nullptr) return;
    ++checked_runs_;
    check_accesses_ += r.check->stats.accesses;
    check_pairs_ += r.check->stats.pairs_checked;
    check_races_ += r.check->stats.races;
    if (!r.check->ok() && ++raced_runs_ <= 3) {
      std::fprintf(stderr, "%s", r.check->to_text().c_str());
    }
  }

  // Runs a prepared engine (built from config()) and tallies it. Under
  // --trace it also writes the run's Chrome trace JSON and text summary
  // as <trace_path minus .json>.<label>.<nodes>n.{json,txt} and prints
  // the summary to stderr; with repeated runs of one configuration
  // (steady-state differencing) the last run's artifacts win.
  RunRecord run(exec::PreparedRun& prepared, const std::string& label,
                uint32_t nodes);

  // Weak-scaling sweep over node_counts() for each series.
  exec::ScalingReport sweep(const std::string& title,
                            const std::string& unit, double unit_scale,
                            double work_per_node, double iterations,
                            const std::vector<struct SeriesSpec>& specs);

  // Write the --selftime artifact: one JSON object per measured point
  // with the analysis counters and host wall-clock. No-op unless
  // --selftime. A failure to write it makes finish() return nonzero.
  void write_analysis_json(const exec::ScalingReport& report);

  // Write the --metrics artifact: every engine point's registry
  // snapshot, makespan and attribution rows. Strictly virtual-time
  // quantities (no host wall-clock), so the output is bit-stable across
  // machines and safe to commit as a byte-exact baseline. No-op unless
  // --metrics. A failure to write it makes finish() return nonzero.
  void write_metrics_json(const exec::ScalingReport& report);

  // Prints the checker tally and returns the process exit code: nonzero
  // when a requested artifact could not be written; with --check, also
  // when a race was found; with --check-mutate, also when the mutant was
  // NOT detected.
  int finish() const {
    if (!options_.check) return artifact_failed_ ? 1 : 0;
    const bool mutating = options_.check_mutate != ir::kNoSyncId;
    const bool detected = check_races_ > 0;
    std::fprintf(stderr,
                 "[check] %llu runs, %llu accesses, %llu pairs, %llu "
                 "races%s\n",
                 (unsigned long long)checked_runs_,
                 (unsigned long long)check_accesses_,
                 (unsigned long long)check_pairs_,
                 (unsigned long long)check_races_,
                 mutating ? (detected ? " — mutant detected"
                                      : " — mutant NOT detected")
                          : (detected ? " — RACES" : " — ok"));
    const bool check_failed = mutating ? !detected : detected;
    return check_failed || artifact_failed_ ? 1 : 0;
  }

 private:
  std::string app_;
  FlagSet flags_;
  BenchOptions options_;
  uint64_t checked_runs_ = 0;
  uint64_t check_accesses_ = 0;
  uint64_t check_pairs_ = 0;
  uint64_t check_races_ = 0;
  uint64_t raced_runs_ = 0;
  bool artifact_failed_ = false;
};

// Closes an artifact opened for writing; false (with a message) when
// anything written to it was lost.
inline bool close_artifact(FILE* f, const std::string& path) {
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

inline RunRecord Bench::run(exec::PreparedRun& prepared,
                            const std::string& label, uint32_t nodes) {
  RunRecord rec{prepared.run(), std::nullopt};
  tally(rec.result);
  if (options_.trace_path.empty()) return rec;
  rec.trace = prepared.engine->trace_summary();

  std::string stem = options_.trace_path;
  const std::string suffix = ".json";
  if (stem.size() > suffix.size() &&
      stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) ==
          0) {
    stem.resize(stem.size() - suffix.size());
  }
  const std::string base =
      stem + "." + label + "." + std::to_string(nodes) + "n";
  // A trace artifact that cannot be written fails the bench (exit 1
  // from finish()), like --metrics and --selftime.
  const std::string json_path = base + ".json";
  if (!prepared.engine->write_trace(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    artifact_failed_ = true;
  }
  const std::string text = rec.trace->to_text();
  const std::string txt_path = base + ".txt";
  FILE* f = std::fopen(txt_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", txt_path.c_str());
    artifact_failed_ = true;
  } else {
    std::fputs(text.c_str(), f);
    if (!close_artifact(f, txt_path)) artifact_failed_ = true;
  }
  std::fprintf(stderr, "  [%s, %u nodes]\n%s  trace: %s.json\n",
               label.c_str(), nodes, text.c_str(), base.c_str());
  return rec;
}

// The largest node count of a sweep: the CR_BENCH_MAX_NODES environment
// variable, default 1024. Anything but a positive integer below 2^31
// (so that node_counts()' doubling cannot wrap) exits with status 2.
inline uint32_t max_nodes() {
  const char* env = std::getenv("CR_BENCH_MAX_NODES");
  if (env == nullptr) return 1024;
  uint32_t value = 0;
  if (!FlagSet::parse_int(env, &value) || value == 0 ||
      value >= (1u << 31)) {
    std::fprintf(stderr,
                 "CR_BENCH_MAX_NODES must be a positive integer below "
                 "2^31, got \"%s\"\n",
                 env);
    std::exit(2);
  }
  return value;
}

// Node counts of the paper's weak-scaling plots: powers of two up to
// max_nodes().
inline std::vector<uint32_t> node_counts() {
  const uint32_t max = max_nodes();
  std::vector<uint32_t> out;
  for (uint32_t n = 1; n <= max; n *= 2) out.push_back(n);
  return out;
}

// One configuration point: run it and return its record.
using RunFn = std::function<PointRecord(uint32_t nodes)>;

struct SeriesSpec {
  std::string name;
  RunFn run;
  // Restrict to node counts where the reference can run (the paper's
  // MPI stencil references require square grids: even powers of two).
  std::function<bool(uint32_t)> applicable = [](uint32_t) { return true; };
};

inline exec::ScalingReport Bench::sweep(
    const std::string& title, const std::string& unit, double unit_scale,
    double work_per_node, double iterations,
    const std::vector<SeriesSpec>& specs) {
  exec::ScalingReport report;
  report.title = title;
  report.unit = unit;
  report.unit_scale = unit_scale;
  for (const SeriesSpec& spec : specs) {
    exec::ScalingSeries series;
    series.name = spec.name;
    for (uint32_t n : node_counts()) {
      if (!spec.applicable(n)) continue;
      std::fprintf(stderr, "  [%s] %u nodes...\n", spec.name.c_str(), n);
      const auto host_begin = std::chrono::steady_clock::now();
      PointRecord rec = spec.run(n);
      const double host_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        host_begin)
              .count();
      exec::ScalingPoint pt;
      pt.nodes = n;
      pt.seconds = rec.seconds;
      pt.work_per_node = work_per_node;
      pt.iterations = iterations;
      if (rec.run) {
        exec::ExecutionResult& r = rec.run->result;
        pt.has_metrics = true;
        pt.makespan_ns = static_cast<double>(r.makespan_ns);
        pt.metrics = std::move(r.metrics);
        if (rec.run->trace) {
          pt.breakdown = rec.run->trace->breakdown;
          pt.attribution = std::move(rec.run->trace->attribution);
        }
        if (options_.selftime) pt.host_seconds = host_seconds;
      }
      series.points.push_back(std::move(pt));
    }
    report.series.push_back(std::move(series));
  }
  return report;
}

namespace detail {

// JSON number with integral values printed exactly (no fraction), so
// counter snapshots diff cleanly.
inline void write_json_number(FILE* f, double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::fprintf(f, "%lld", static_cast<long long>(v));
  } else {
    std::fprintf(f, "%.17g", v);
  }
}

// One engine point of a BENCH_metrics or BENCH_mapper document: nodes,
// virtual seconds, makespan, registry snapshot and attribution rows.
inline void write_point_json(FILE* f, const exec::ScalingPoint& p) {
  std::fprintf(f, "      {\"nodes\": %u, \"virtual_seconds\": %.9g, "
                  "\"makespan_ns\": ",
               p.nodes, p.seconds);
  write_json_number(f, p.makespan_ns);
  std::fprintf(f, ",\n       \"metrics\": {");
  bool first_m = true;
  for (const auto& [key, value] : p.metrics) {
    std::fprintf(f, "%s\"%s\": ", first_m ? "" : ", ", key.c_str());
    write_json_number(f, value);
    first_m = false;
  }
  std::fprintf(f, "},\n       \"attribution\": [");
  for (size_t ai = 0; ai < p.attribution.size(); ++ai) {
    const support::TraceAttributionRow& r = p.attribution[ai];
    std::fprintf(f, "%s{\"source\": %u, \"label\": \"%s\", \"copy_ns\": ",
                 ai == 0 ? "" : ", ", r.source, r.label.c_str());
    write_json_number(f, r.copy_ns);
    std::fprintf(f, ", \"sync_ns\": ");
    write_json_number(f, r.sync_ns);
    std::fprintf(f, ", \"spans\": %llu}",
                 static_cast<unsigned long long>(r.spans));
  }
  std::fprintf(f, "]}");
}

// One measured point of the --selftime document: host wall-clock and
// the dynamic-analysis counters (rt.dep.*) under their registry names.
inline void write_analysis_point_json(FILE* f, const exec::ScalingPoint& p) {
  std::fprintf(f, "      {\"nodes\": %u, \"virtual_seconds\": %.9g, "
                  "\"analysis\": {",
               p.nodes, p.seconds);
  for (const auto& [key, value] : p.metrics) {
    if (key.rfind("rt.dep.", 0) != 0) continue;
    std::fprintf(f, "\"%s\": ", key.c_str());
    write_json_number(f, value);
    std::fprintf(f, ", ");
  }
  std::fprintf(f, "\"host_seconds\": %.6f}}", p.host_seconds);
}

// Writes `report` as one JSON document at `path`: the `head` members,
// then every series with the points `keep` selects, each written by
// `write`. False, with a message, when the file cannot be written.
inline bool write_report_json(
    const std::string& path, const std::string& head,
    const exec::ScalingReport& report,
    const std::function<bool(const exec::ScalingPoint&)>& keep,
    const std::function<void(FILE*, const exec::ScalingPoint&)>& write) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  %s,\n  \"series\": [\n", head.c_str());
  for (size_t si = 0; si < report.series.size(); ++si) {
    const exec::ScalingSeries& s = report.series[si];
    std::fprintf(f, "    {\"name\": \"%s\", \"points\": [\n", s.name.c_str());
    bool first = true;
    for (const exec::ScalingPoint& p : s.points) {
      if (!keep(p)) continue;
      if (!first) std::fprintf(f, ",\n");
      write(f, p);
      first = false;
    }
    std::fprintf(f, "\n    ]}%s\n", si + 1 < report.series.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return close_artifact(f, path);
}

}  // namespace detail

inline void Bench::write_analysis_json(const exec::ScalingReport& report) {
  if (!options_.selftime) return;
  auto measured = [](const exec::ScalingPoint& p) {
    return p.host_seconds >= 0;
  };
  if (!detail::write_report_json(
          options_.analysis_path, "\"title\": \"" + report.title + "\"",
          report, measured, detail::write_analysis_point_json)) {
    artifact_failed_ = true;
    return;
  }
  std::fprintf(stderr, "  analysis counters: %s\n",
               options_.analysis_path.c_str());
}

inline void Bench::write_metrics_json(const exec::ScalingReport& report) {
  if (options_.metrics_path.empty()) return;
  if (!detail::write_report_json(
          options_.metrics_path, "\"app\": \"" + app_ + "\"", report,
          [](const exec::ScalingPoint& p) { return p.has_metrics; },
          detail::write_point_json)) {
    artifact_failed_ = true;
    return;
  }
  std::fprintf(stderr, "  metrics snapshot: %s\n",
               options_.metrics_path.c_str());
}

// Measure the steady-state per-iteration time of an engine execution by
// differencing two runs with different step counts (initialization,
// intersections and final copies cancel out). The record carries the
// larger-step run.
inline PointRecord steady_seconds(
    const std::function<RunRecord(uint64_t)>& run, uint64_t steps_lo,
    uint64_t steps_hi) {
  const double t_lo = exec::to_seconds(run(steps_lo).result.makespan_ns);
  RunRecord hi = run(steps_hi);
  const double t_hi = exec::to_seconds(hi.result.makespan_ns);
  return {(t_hi - t_lo) / static_cast<double>(steps_hi - steps_lo),
          std::move(hi)};
}

// The same differencing for an analytic reference model, whose `total`
// returns the virtual seconds of a run.
inline PointRecord steady_seconds(
    const std::function<double(uint64_t)>& total, uint64_t steps_lo,
    uint64_t steps_hi) {
  const double t_lo = total(steps_lo);
  const double t_hi = total(steps_hi);
  return {(t_hi - t_lo) / static_cast<double>(steps_hi - steps_lo),
          std::nullopt};
}

inline bool is_square_power(uint32_t n) {
  // Even powers of two: 1, 4, 16, 64, ...
  int bits = 0;
  uint32_t v = n;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return (1u << bits) == n && bits % 2 == 0;
}

}  // namespace cr::bench
