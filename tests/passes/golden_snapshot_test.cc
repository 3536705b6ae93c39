// Golden-file IR snapshots after each pass.
//
// The pipeline's PassObserver fires after every pass that runs; this
// test drives the full to-SPMD pipeline over a miniature 4-shard
// stencil fragment and compares the printed IR (with stable sync ids)
// after each pass against checked-in goldens under
// tests/passes/golden/. A diff here means a pass changed what it emits
// — inspect it, and if intended regenerate with
//
//   CR_UPDATE_GOLDEN=1 ./tests/test_passes --gtest_filter='GoldenSnapshot.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/stencil/stencil.h"
#include "exec/implicit_exec.h"
#include "ir/printer.h"
#include "passes/applicability.h"
#include "passes/pipeline.h"

namespace cr::passes {
namespace {

#ifndef CR_TEST_SRCDIR
#error "CR_TEST_SRCDIR must point at the tests/ source directory"
#endif

std::string golden_path(const std::string& name) {
  return std::string(CR_TEST_SRCDIR) + "/passes/golden/" + name + ".ir";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Printed IR after each pass, in pipeline order, plus a final snapshot
// once the pipeline has spliced the init/pre/finalize copy lists.
std::vector<std::pair<std::string, std::string>> snapshot_stencil() {
  exec::CostModel cost;
  rt::Runtime rt(exec::runtime_config(4, 2, cost, /*real_data=*/false));
  apps::stencil::Config cfg;
  cfg.nodes = 4;
  cfg.tasks_per_node = 1;
  cfg.tile_x = 6;
  cfg.tile_y = 6;
  cfg.steps = 2;
  ir::Program program = apps::stencil::build(rt, cfg).program;

  PipelineOptions options;
  options.num_shards = 4;
  const ir::PrintOptions print{/*with_decls=*/false, /*show_sync_ids=*/true};

  EXPECT_EQ(find_fragments(program).size(), 1u);
  std::vector<std::pair<std::string, std::string>> snaps;
  int step = 0;
  const PipelineReport report = control_replicate(
      program, options, [&](const char* pass, const ir::Program& p) {
        char tag[64];
        std::snprintf(tag, sizeof(tag), "stencil_%02d_%s", step++, pass);
        snaps.emplace_back(tag, ir::to_string(p, print));
      });
  EXPECT_TRUE(report.applied);
  char tag[64];
  std::snprintf(tag, sizeof(tag), "stencil_%02d_spliced", step++);
  snaps.emplace_back(tag, ir::to_string(program, print));
  return snaps;
}

TEST(GoldenSnapshot, StencilPerPassIR) {
  const bool update = std::getenv("CR_UPDATE_GOLDEN") != nullptr;
  const auto snaps = snapshot_stencil();
  // Every pass fired (the defaults run all eight), plus the post-splice
  // snapshot.
  ASSERT_EQ(snaps.size(), 9u);
  for (const auto& [name, text] : snaps) {
    const std::string path = golden_path(name);
    if (update) {
      std::ofstream out(path);
      ASSERT_TRUE(out.is_open()) << "cannot write " << path;
      out << text;
      continue;
    }
    const std::string want = read_file(path);
    ASSERT_FALSE(want.empty())
        << "missing golden " << path
        << " — regenerate with CR_UPDATE_GOLDEN=1";
    EXPECT_EQ(text, want) << "snapshot " << name
                          << " diverged from its golden file";
  }
}

// The ablation toggles are PipelineOptions guards: a disabled pass does
// not fire the observer and does not transform.
TEST(GoldenSnapshot, DisabledPassSkipsObserver) {
  exec::CostModel cost;
  rt::Runtime rt(exec::runtime_config(4, 2, cost, /*real_data=*/false));
  apps::stencil::Config cfg;
  cfg.nodes = 4;
  cfg.tasks_per_node = 1;
  cfg.tile_x = 6;
  cfg.tile_y = 6;
  cfg.steps = 2;
  ir::Program program = apps::stencil::build(rt, cfg).program;

  support::MetricsRegistry m;
  PipelineOptions options;
  options.num_shards = 4;
  options.intersection_opt = false;  // ablation A1
  options.metrics = &m;

  std::vector<std::string> fired;
  const PipelineReport report = control_replicate(
      program, options,
      [&](const char* pass, const ir::Program&) { fired.push_back(pass); });
  ASSERT_TRUE(report.applied);
  // The disabled pass records no counter either.
  EXPECT_EQ(m.snapshot().count("passes.intersection-opt.tables"), 0u);

  for (const std::string& name : fired) {
    EXPECT_NE(name, "intersection-opt");
  }
  EXPECT_EQ(fired.size(), 7u);  // all eight passes minus the disabled one
}

}  // namespace
}  // namespace cr::passes
