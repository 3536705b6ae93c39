#include "exec/bench_diff.h"

#include <cstdio>
#include <sstream>

#include "support/json.h"

namespace cr::exec {

namespace {

std::string read_file(const std::string& path, std::string* err) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *err = "cannot open " + path;
    return {};
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// series name -> nodes -> point object.
using PointMap =
    std::map<std::string, std::map<double, const support::JsonValue*>>;

PointMap collect_points(const support::JsonValue& doc, const char* which,
                        std::vector<std::string>& errors) {
  PointMap out;
  const support::JsonValue* series = doc.get("series");
  if (series == nullptr || !series->is_array()) {
    errors.push_back(std::string(which) + ": no \"series\" array");
    return out;
  }
  for (const support::JsonValue& s : series->arr) {
    const support::JsonValue* name = s.get("name");
    const support::JsonValue* points = s.get("points");
    if (name == nullptr || !name->is_string() || points == nullptr ||
        !points->is_array()) {
      errors.push_back(std::string(which) + ": malformed series entry");
      continue;
    }
    for (const support::JsonValue& p : points->arr) {
      const support::JsonValue* nodes = p.get("nodes");
      if (nodes == nullptr || !nodes->is_number()) {
        errors.push_back(std::string(which) + ": series \"" + name->str +
                         "\": point without \"nodes\"");
        continue;
      }
      out[name->str][nodes->num] = &p;
    }
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void gate_metric(const std::string& where, const std::string& metric,
                 double base, double cur, double pct, double zero_abs_eps,
                 DiffResult& out) {
  // base == 0 makes a relative threshold degenerate (0 * (1 + pct/100)
  // is still 0): fall back to an absolute epsilon so a metric that was
  // and stays (near-)zero passes, while any real growth still flags.
  const bool regressed =
      base == 0 ? cur > zero_abs_eps : cur > base * (1.0 + pct / 100.0);
  const double change = base > 0 ? (cur - base) / base * 100.0 : 0.0;
  std::ostringstream os;
  os << where << " " << metric << ": base=" << fmt(base)
     << " cur=" << fmt(cur);
  if (base > 0) {
    char chg[32];
    std::snprintf(chg, sizeof chg, "%+.2f%%", change);
    os << " (" << chg << ", limit +" << fmt(pct) << "%)";
  } else {
    os << " (zero baseline, limit abs " << fmt(zero_abs_eps) << ")";
  }
  if (regressed) {
    out.regressions.push_back("REGRESSION: " + os.str());
  } else {
    out.lines.push_back("ok: " + os.str());
  }
}

// Host times are wall-clock seconds: a negative value is the historic
// "unmeasured" sentinel (now serialized as null) and must never be
// compared as a measurement — treat it as a structural error.
void check_host_seconds(const std::string& where, const char* which,
                        const support::JsonValue& point, DiffResult& out) {
  const support::JsonValue* an = point.get("analysis");
  if (an == nullptr || !an->is_object()) return;
  const support::JsonValue* hs = an->get("host_seconds");
  if (hs != nullptr && hs->is_number() && hs->num < 0) {
    out.errors.push_back(where + ": " + which +
                         " has negative host_seconds (" + fmt(hs->num) +
                         "): unmeasured sentinel leaked into the report");
  }
}

void compare_point(const std::string& where, const support::JsonValue& base,
                   const support::JsonValue& cur, const DiffOptions& options,
                   DiffResult& out) {
  check_host_seconds(where, "baseline", base, out);
  check_host_seconds(where, "current", cur, out);
  // A baseline value that is missing or not a number would otherwise
  // switch its gate off silently: report it instead.
  const support::JsonValue* bm = base.get("makespan_ns");
  const support::JsonValue* cm = cur.get("makespan_ns");
  if (bm == nullptr || !bm->is_number()) {
    out.errors.push_back(where + ": baseline point has no numeric makespan_ns");
  } else if (cm == nullptr || !cm->is_number()) {
    out.errors.push_back(where + ": current point has no makespan_ns");
  } else {
    gate_metric(where, "makespan_ns", bm->num, cm->num, options.makespan_pct,
                options.zero_abs_eps, out);
  }
  const support::JsonValue* bmet = base.get("metrics");
  if (bmet == nullptr || !bmet->is_object()) return;
  const support::JsonValue* cmet = cur.get("metrics");
  for (const auto& [key, value] : bmet->obj) {
    if (!value.is_number()) {
      out.errors.push_back(where + ": baseline metric \"" + key +
                           "\" is not a number");
      continue;
    }
    // Prefix routing: "host." keys are wall-clock measurements gated
    // only by host_pct (virtual-time thresholds would misread their
    // noise); "info." keys are context and never gate. Explicit
    // metric_pct entries still override either.
    const bool is_host = key.rfind("host.", 0) == 0;
    const bool is_info = key.rfind("info.", 0) == 0;
    double pct = is_info ? -1 : (is_host ? options.host_pct
                                         : options.all_pct);
    auto it = options.metric_pct.find(key);
    if (it != options.metric_pct.end()) pct = it->second;
    if (pct < 0) continue;  // not gated
    const support::JsonValue* cv =
        cmet != nullptr && cmet->is_object() ? cmet->get(key) : nullptr;
    if (cv == nullptr || !cv->is_number()) {
      out.errors.push_back(where + ": metric \"" + key +
                           "\" missing from current run");
      continue;
    }
    if (value.num < 0 || cv->num < 0) {
      // Every gated quantity is a count or a duration; a negative value
      // is an unmeasured sentinel or corruption, and a relative
      // threshold on it is meaningless.
      out.errors.push_back(where + ": metric \"" + key +
                           "\" is negative (base=" + fmt(value.num) +
                           " cur=" + fmt(cv->num) + "): refusing to gate");
      continue;
    }
    gate_metric(where, key, value.num, cv->num, pct, options.zero_abs_eps,
                out);
  }
}

// Top-level identity keys: when the baseline carries one (BENCH_mapper
// artifacts tag "app" and "mapper"), the current document must match —
// diffing a stencil cell against a circuit cell, or a balanced cell
// against an adversarial one, must read as an error, not a regression
// table.
void check_identity_key(const char* key, const support::JsonValue& base,
                        const support::JsonValue& cur, DiffResult& out) {
  const support::JsonValue* bv = base.get(key);
  if (bv == nullptr || !bv->is_string()) return;
  const support::JsonValue* cv = cur.get(key);
  if (cv == nullptr || !cv->is_string()) {
    out.errors.push_back(std::string("current run has no \"") + key +
                         "\" (baseline: \"" + bv->str + "\")");
    return;
  }
  if (cv->str != bv->str) {
    out.errors.push_back(std::string("\"") + key + "\" mismatch: baseline \"" +
                         bv->str + "\" vs current \"" + cv->str + "\"");
  }
}

}  // namespace

std::string DiffResult::to_text() const {
  std::ostringstream os;
  for (const std::string& l : lines) os << l << "\n";
  for (const std::string& r : regressions) os << r << "\n";
  for (const std::string& e : errors) os << "ERROR: " << e << "\n";
  os << (ok() ? "bench_diff: OK" : "bench_diff: FAILED") << " ("
     << regressions.size() << " regressions, " << errors.size()
     << " errors)\n";
  return os.str();
}

DiffResult bench_diff(const std::string& baseline_json,
                      const std::string& current_json,
                      const DiffOptions& options) {
  DiffResult out;
  support::JsonValue base, cur;
  std::string err;
  if (!support::json_parse(baseline_json, base, err)) {
    out.errors.push_back("baseline: " + err);
    return out;
  }
  if (!support::json_parse(current_json, cur, err)) {
    out.errors.push_back("current: " + err);
    return out;
  }
  check_identity_key("app", base, cur, out);
  check_identity_key("mapper", base, cur, out);
  const PointMap bp = collect_points(base, "baseline", out.errors);
  const PointMap cp = collect_points(cur, "current", out.errors);
  for (const auto& [name, pts] : bp) {
    auto cs = cp.find(name);
    if (cs == cp.end()) {
      out.errors.push_back("series \"" + name + "\" missing from current run");
      continue;
    }
    for (const auto& [nodes, point] : pts) {
      auto cpt = cs->second.find(nodes);
      const std::string where =
          "[" + name + ", " + fmt(nodes) + " nodes]";
      if (cpt == cs->second.end()) {
        out.errors.push_back(where + " missing from current run");
        continue;
      }
      compare_point(where, *point, *cpt->second, options, out);
    }
  }
  return out;
}

DiffResult bench_diff_files(const std::string& baseline_path,
                            const std::string& current_path,
                            const DiffOptions& options) {
  DiffResult out;
  std::string err;
  const std::string base = read_file(baseline_path, &err);
  if (!err.empty()) {
    out.errors.push_back(err);
    return out;
  }
  const std::string cur = read_file(current_path, &err);
  if (!err.empty()) {
    out.errors.push_back(err);
    return out;
  }
  return bench_diff(base, cur, options);
}

}  // namespace cr::exec
