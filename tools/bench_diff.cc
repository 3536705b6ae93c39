// CLI wrapper around exec::bench_diff: compare a current bench --metrics
// JSON against a committed baseline and exit nonzero on any regression
// or structural mismatch. Used by CI as the perf regression gate.
//
//   bench_diff <baseline.json> <current.json>
//       [--makespan=<pct>]         threshold for makespan_ns (default 5)
//       [--all=<pct>]              gate every metric at this threshold
//       [--host=<pct>]             gate "host."-prefixed wall-clock
//                                  metrics at this (looser) threshold
//       [--metric=<name>:<pct>]    per-metric threshold (repeatable)
//       [--matrix]                 treat the two paths as DIRECTORIES:
//                                  diff every *.json in the baseline dir
//                                  against the same filename in the
//                                  current dir (the mapper-matrix gate)
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/bench_diff.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <current.json> [--makespan=<pct>] "
               "[--all=<pct>] [--host=<pct>] [--metric=<name>:<pct>] "
               "[--matrix]\n",
               argv0);
  return 2;
}

// A threshold value: the whole text must be one finite number.
bool parse_pct(const std::string& text, double* out) {
  const char* end = text.data() + text.size();
  double v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// --matrix: every *.json in `baseline_dir` must exist under the same
// name in `current_dir` and pass the diff. Extra files in the current
// dir are ignored (new cells become gates once committed as baselines).
int diff_matrix(const std::string& baseline_dir,
                const std::string& current_dir,
                const cr::exec::DiffOptions& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  std::error_code ec;
  for (const fs::directory_entry& e :
       fs::directory_iterator(baseline_dir, ec)) {
    if (e.path().extension() == ".json") {
      names.push_back(e.path().filename().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "cannot read directory %s: %s\n",
                 baseline_dir.c_str(), ec.message().c_str());
    return 1;
  }
  if (names.empty()) {
    std::fprintf(stderr, "no *.json baselines in %s\n", baseline_dir.c_str());
    return 1;
  }
  std::sort(names.begin(), names.end());
  int failures = 0;
  for (const std::string& name : names) {
    std::printf("=== %s ===\n", name.c_str());
    const cr::exec::DiffResult result = cr::exec::bench_diff_files(
        (fs::path(baseline_dir) / name).string(),
        (fs::path(current_dir) / name).string(), options);
    std::fputs(result.to_text().c_str(), stdout);
    if (!result.ok()) ++failures;
  }
  std::printf("matrix: %d of %zu cells failed\n", failures, names.size());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cr::exec::DiffOptions options;
  std::string baseline, current;
  bool matrix = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--matrix") {
      matrix = true;
    } else if (arg.rfind("--makespan=", 0) == 0) {
      if (!parse_pct(arg.substr(std::strlen("--makespan=")),
                     &options.makespan_pct)) {
        return usage(argv[0]);
      }
    } else if (arg.rfind("--all=", 0) == 0) {
      if (!parse_pct(arg.substr(std::strlen("--all=")), &options.all_pct)) {
        return usage(argv[0]);
      }
    } else if (arg.rfind("--host=", 0) == 0) {
      if (!parse_pct(arg.substr(std::strlen("--host=")), &options.host_pct)) {
        return usage(argv[0]);
      }
    } else if (arg.rfind("--metric=", 0) == 0) {
      const std::string spec = arg.substr(std::strlen("--metric="));
      const size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0) return usage(argv[0]);
      double pct = 0;
      if (!parse_pct(spec.substr(colon + 1), &pct)) return usage(argv[0]);
      options.metric_pct[spec.substr(0, colon)] = pct;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (baseline.empty()) {
      baseline = arg;
    } else if (current.empty()) {
      current = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (baseline.empty() || current.empty()) return usage(argv[0]);
  if (matrix) return diff_matrix(baseline, current, options);

  const cr::exec::DiffResult result =
      cr::exec::bench_diff_files(baseline, current, options);
  std::fputs(result.to_text().c_str(), stdout);
  return result.ok() ? 0 : 1;
}
