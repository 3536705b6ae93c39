// In-process workload driver of the host-time benchmark (see NOTES.md).
//
// One process runs one workload and prints one JSON object on stdout.
// All timing is outside-in: the driver times its own calls into each
// layer's public functions and reads counters from
// ExecutionResult::metrics; nothing inside the library is instrumented.
//
//   hostbench_driver --workload=<name> [--seed=<n>] [--mode=rep|setup|isect]
//                    [--setups=<k>] [--probe] [--no-check] [--no-deps]
//
// Modes:
//   rep    <k> setups without a run, so setup time has several
//          samples, then one full repetition (setup + Engine::run());
//   setup  <k> setups without a run;
//   isect  setup without an engine, then shallow + complete
//          intersections over every distinct (src, dst) partition pair
//          of the transformed program's copy statements.
//
// --probe (rep mode) schedules a no-op simulator callback at the current
// virtual time just before Engine::run(). The unroll schedules nothing
// earlier, so the probe pops first when the drain starts and its host
// timestamp splits run() into unroll and drain. It adds exactly one
// event and leaves the makespan unchanged.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/circuit/circuit.h"
#include "apps/pennant/pennant.h"
#include "apps/stencil/stencil.h"
#include "exec/engine.h"
#include "exec/implicit_exec.h"
#include "passes/pipeline.h"
#include "rt/intersect.h"

namespace {

using namespace cr;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "hostbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

enum class AppKind { kCircuit, kStencil, kPennant };

struct Workload {
  AppKind app;
  uint32_t nodes;
  uint64_t steps;
  exec::ExecMode mode;
  bool track_dependences;
  bool check;
};

// The benchmark's workloads plus the extra points the traced runs use:
// circuit at 256 nodes (the growth probe) and the Figure 8 sweep's
// largest CR point.
const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"circuit-cr-1024",
       {AppKind::kCircuit, 1024, 5, exec::ExecMode::kSpmd, false, false}},
      {"circuit-cr-256",
       {AppKind::kCircuit, 256, 5, exec::ExecMode::kSpmd, false, false}},
      {"stencil-implicit-audit-64",
       {AppKind::kStencil, 64, 8, exec::ExecMode::kImplicit, true, true}},
      {"pennant-cr-256",
       {AppKind::kPennant, 256, 6, exec::ExecMode::kSpmd, false, false}},
  };
  return table;
}

// The figure benches' configurations (make_config and the cost-model
// settings of run_engine in bench/bench_fig{6,8,9}_*.cc), restated here
// because those live in each bench's anonymous namespace. The pinned
// makespans catch any drift between the two.
apps::circuit::Config circuit_config(uint32_t nodes, uint64_t steps,
                                     uint64_t seed) {
  apps::circuit::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 11;
  cfg.nodes_per_piece = 128;
  cfg.wires_per_piece = 512;
  cfg.pct_cross = 0.05;
  cfg.window = 2;
  cfg.steps = steps;
  cfg.seed = seed;
  cfg.ns_per_wire = 0.31e9 / (1.6 * static_cast<double>(cfg.wires_per_piece));
  cfg.ns_per_node = 0.2 * cfg.ns_per_wire;
  cfg.voltage_virtual_bytes = 2048;
  return cfg;
}

apps::stencil::Config stencil_config(uint32_t nodes, uint64_t steps) {
  apps::stencil::Config cfg;
  cfg.nodes = nodes;
  cfg.tasks_per_node = 11;
  cfg.tile_x = 32;
  cfg.tile_y = 32;
  cfg.steps = steps;
  cfg.ns_per_point = 1.067e9 / static_cast<double>(32 * 32) / 1.15;
  cfg.halo_virtual_bytes = 480;
  return cfg;
}

apps::pennant::Config pennant_config(uint32_t nodes, uint64_t steps) {
  apps::pennant::Config cfg;
  cfg.nodes = nodes;
  cfg.pieces_per_node = 11;
  cfg.zones_x_per_piece = 24;
  cfg.zones_y = 24;
  cfg.steps = steps;
  const double zones_per_piece =
      static_cast<double>(cfg.zones_x_per_piece) * cfg.zones_y;
  cfg.ns_per_zone = 1.33 * 0.49e9 / (2.3 * zones_per_piece) / (12.0 / 11.0);
  cfg.ns_per_point = 0.3 * cfg.ns_per_zone;
  cfg.point_virtual_bytes = 1024;
  return cfg;
}

exec::CostModel cost_model(const Workload& w) {
  exec::CostModel cost = exec::CostModel::piz_daint();
  cost.track_dependences = w.track_dependences;
  switch (w.app) {
    case AppKind::kCircuit:
      cost.implicit_launch_ns = 300000;
      break;
    case AppKind::kStencil:
      cost.implicit_launch_ns = 2.0e6;
      break;
    case AppKind::kPennant:
      cost.implicit_launch_ns = 330000;
      cost.task_slow_prob = 1.0 / 64.0;
      cost.task_slow_frac = 0.30;
      break;
  }
  return cost;
}

// One prepared workload. Members are declared in dependency order so
// they are destroyed engine first, runtime last.
struct Setup {
  std::unique_ptr<rt::Runtime> rt;
  std::shared_ptr<void> app;  // keeps the app's non-program state alive
  std::unique_ptr<ir::Program> program;
  std::unique_ptr<exec::Engine> engine;
  double build_s = 0;   // rt::Runtime ctor + apps::<app>::build
  double passes_s = 0;  // control_replicate / prepare_distributed
  double ctor_s = 0;    // exec::Engine ctor

  void tear_down() {
    engine.reset();
    program.reset();
    app.reset();
    rt.reset();
  }
};

template <class App>
void adopt(Setup& s, App app) {
  for (auto& t : app.program.tasks) t.kernel = nullptr;  // kernels off
  s.program = std::make_unique<ir::Program>(std::move(app.program));
  s.app = std::make_shared<App>(std::move(app));
}

Setup set_up(const Workload& w, uint64_t seed, bool with_engine) {
  const exec::CostModel cost = cost_model(w);
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.rt = std::make_unique<rt::Runtime>(
      exec::runtime_config(w.nodes, 12, cost, /*real_data=*/false));
  switch (w.app) {
    case AppKind::kCircuit:
      adopt(s, apps::circuit::build(*s.rt,
                                    circuit_config(w.nodes, w.steps, seed)));
      break;
    case AppKind::kStencil:
      adopt(s, apps::stencil::build(*s.rt, stencil_config(w.nodes, w.steps)));
      break;
    case AppKind::kPennant:
      adopt(s, apps::pennant::build(*s.rt, pennant_config(w.nodes, w.steps)));
      break;
  }
  const Clock::time_point t1 = Clock::now();
  // What exec::prepare() does, split so each call is timed on its own.
  exec::ExecConfig cfg;
  cfg.cost = cost;
  cfg.mode = w.mode;
  cfg.check = w.check;
  cfg.pipeline.metrics = &s.rt->metrics();
  if (w.mode == exec::ExecMode::kSpmd) {
    cfg.pipeline.num_shards = w.nodes;
    const passes::PipelineReport report =
        passes::control_replicate(*s.program, cfg.pipeline);
    if (!report.applied) die("control replication failed: " + report.failure);
  } else {
    passes::prepare_distributed(*s.program, cfg.pipeline);
  }
  const Clock::time_point t2 = Clock::now();
  if (with_engine) {
    s.engine = std::make_unique<exec::Engine>(*s.rt, *s.program, cfg);
  }
  const Clock::time_point t3 = Clock::now();
  s.build_s = seconds(t0, t1);
  s.passes_s = seconds(t1, t2);
  s.ctor_s = seconds(t2, t3);
  return s;
}

double setup_seconds(const Setup& s) {
  return s.build_s + s.passes_s + s.ctor_s;
}

// --- JSON output ----------------------------------------------------------

class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void num_list(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ", vs[i]);
      out += buf;
    }
    field(key, out + "]");
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

double metric(const exec::ExecutionResult& r, const char* key) {
  auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0.0 : it->second;
}

// Registry counters the benchmark reports or checks.
constexpr const char* kCounters[] = {
    "exec.point_tasks",    "exec.copies_issued",  "exec.intersection_pairs",
    "sim.queue.max_depth", "rt.dep.pairs_tested", "rt.dep.pairs_scanned",
    "check.accesses",      "check.hb_edges",      "check.pairs_checked",
};

std::vector<double> time_setups(const Workload& w, uint64_t seed, int count) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(setup_seconds(set_up(w, seed, /*with_engine=*/true)));
  }
  return out;
}

// The extra setups come first, so the timed repetition's memory is the
// last thing allocated. Without --probe the process ends right after the
// run, without tearing it down: teardown is not part of wall_s, and at
// 1024 nodes it costs over a second. With --probe the teardown is timed
// as the post-run span.
void run_rep(const Workload& w, uint64_t seed, bool probe, int extra_setups,
             JsonOut& out) {
  std::vector<double> setups = time_setups(w, seed, extra_setups);
  const Clock::time_point t0 = Clock::now();
  Setup s = set_up(w, seed, /*with_engine=*/true);
  Clock::time_point probe_at{};
  if (probe) {
    sim::Simulator& sim = s.rt->sim();
    sim.schedule_at(sim.now(), [&probe_at] { probe_at = Clock::now(); });
  }
  const Clock::time_point r0 = Clock::now();
  const exec::ExecutionResult res = s.engine->run();
  const Clock::time_point r1 = Clock::now();
  setups.push_back(setup_seconds(s));
  out.num_list("setup_s", setups);
  out.num("build_s", s.build_s);
  out.num("passes_s", s.passes_s);
  out.num("ctor_s", s.ctor_s);
  out.num("run_s", seconds(r0, r1));
  out.num("wall_s", setup_seconds(s) + seconds(r0, r1));
  out.num("makespan_ns", static_cast<double>(res.makespan_ns));
  // The probe is the only event the benchmark adds.
  out.num("events", metric(res, "sim.events_processed") - (probe ? 1 : 0));
  out.num("check_races",
          res.check ? static_cast<double>(res.check->stats.races) : -1.0);
  for (const char* key : kCounters) out.num(key, metric(res, key));
  if (!probe) {
    out.print();
    std::fflush(stdout);
    std::_Exit(0);
  }
  if (probe_at == Clock::time_point{}) die("unroll/drain probe never ran");
  s.tear_down();
  const Clock::time_point t1 = Clock::now();
  out.num("unroll_s", seconds(r0, probe_at));
  out.num("drain_s", seconds(probe_at, r1));
  out.num("post_run_s", seconds(r1, t1));
  out.num("traced_wall_s", seconds(t0, t1));
}

void run_isect(const Workload& w, uint64_t seed, JsonOut& out) {
  Setup s = set_up(w, seed, /*with_engine=*/false);
  std::set<std::pair<rt::PartitionId, rt::PartitionId>> copy_pairs;
  ir::for_each_stmt(s.program->body, [&](const ir::Stmt& st) {
    if (st.kind == ir::StmtKind::kCopy && st.copy_src != rt::kNoId &&
        st.copy_dst != rt::kNoId) {
      copy_pairs.emplace(st.copy_src, st.copy_dst);
    }
  });
  const rt::RegionForest& forest = s.rt->forest();
  double shallow_s = 0, complete_s = 0;
  uint64_t pairs = 0, elements = 0;
  for (const auto& [src, dst] : copy_pairs) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<rt::IntersectionPair> found =
        rt::shallow_intersections(forest, src, dst);
    const Clock::time_point t1 = Clock::now();
    for (const rt::IntersectionPair& p : found) {
      elements += rt::complete_intersection(forest,
                                            forest.subregion(src, p.src_color),
                                            forest.subregion(dst, p.dst_color))
                      .size();
    }
    const Clock::time_point t2 = Clock::now();
    shallow_s += seconds(t0, t1);
    complete_s += seconds(t1, t2);
    pairs += found.size();
  }
  out.num("shallow_s", shallow_s);
  out.num("complete_s", complete_s);
  out.num("pairs", static_cast<double>(pairs));
  out.num("elements", static_cast<double>(elements));
}

uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || end == nullptr || *end != '\0') {
    die("bad value for --" + flag + ": '" + v + "'");
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, mode = "rep";
  uint64_t seed = 42;
  int setups = 0;
  bool probe = false, no_check = false, no_deps = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) die("bad argument '" + arg + "'");
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "workload") {
      name = value;
    } else if (key == "seed") {
      seed = parse_u64(key, value);
    } else if (key == "mode") {
      mode = value;
    } else if (key == "setups") {
      setups = static_cast<int>(parse_u64(key, value));
    } else if (key == "probe") {
      probe = true;
    } else if (key == "no-check") {
      no_check = true;
    } else if (key == "no-deps") {
      no_deps = true;
    } else {
      die("unknown flag '--" + key + "'");
    }
  }
  const auto it = workloads().find(name);
  if (it == workloads().end()) die("unknown workload '" + name + "'");
  Workload w = it->second;
  if (no_check) w.check = false;
  if (no_deps) w.track_dependences = false;

  JsonOut out;
  out.str("workload", name);
  if (mode == "rep") {
    run_rep(w, seed, probe, setups, out);
  } else if (mode == "setup") {
    out.num_list("setup_s", time_setups(w, seed, setups));
  } else if (mode == "isect") {
    run_isect(w, seed, out);
  } else {
    die("unknown mode '" + mode + "'");
  }
  out.print();
  return 0;
}
