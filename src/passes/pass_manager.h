// A uniform pass interface for the control replication pipeline.
//
// Each stage of paper §3 is a `Pass` registered with a `PassManager`;
// the manager owns the ordering, per-pass enable/disable (the ablation
// toggles A1/A4 are plain registry switches), and a uniform stats map
// keyed "<pass>.<counter>" from which the classic PipelineReport is
// derived. `control_replicate` / `prepare_distributed` are thin
// configurations of the same registry (the latter simply leaves out
// sync insertion and shard creation).
//
// An observer hook fires after every pass that runs, with the program
// in its post-pass state — this is what the golden IR-snapshot tests
// and `--trace`-style dumps build on.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/program.h"
#include "ir/static_region_tree.h"
#include "passes/common.h"
#include "passes/pipeline.h"

namespace cr::passes {

// Shared state threaded through the passes of one pipeline run. Stats
// accumulate across fragments; the fragment-scoped pieces (the alias
// oracle and the pending splices) are reset by the manager between
// fragments.
class PassContext {
 public:
  PassContext(const ir::Program& program, const PipelineOptions& options,
              bool to_spmd)
      : program_(&program), options_(options), to_spmd_(to_spmd) {}

  const PipelineOptions& options() const { return options_; }
  bool to_spmd() const { return to_spmd_; }

  // The fragment currently being transformed. Passes update `end` as
  // they insert or remove statements inside it.
  Fragment& fragment() { return fragment_; }

  // Alias oracle for the current fragment, built on first use and
  // honoring options().hierarchical (ablation A3: flat aliasing).
  const ir::StaticRegionTree& oracle();

  // Statements to splice around the fragment after every pass has run:
  // init and pre go in front (in that order), finalize goes after.
  std::vector<ir::Stmt>& init() { return init_; }
  std::vector<ir::Stmt>& pre() { return pre_; }
  std::vector<ir::Stmt>& finalize() { return finalize_; }

  // Uniform per-pass counters, keyed "<pass>.<counter>".
  void add_stat(const std::string& key, uint64_t delta) {
    stats_[key] += delta;
  }
  uint64_t stat(const std::string& key) const {
    auto it = stats_.find(key);
    return it == stats_.end() ? 0 : it->second;
  }
  const std::map<std::string, uint64_t>& stats() const { return stats_; }

 private:
  friend class PassManager;

  void begin_fragment(const Fragment& fragment) {
    fragment_ = fragment;
    oracle_.reset();
    init_.clear();
    pre_.clear();
    finalize_.clear();
  }

  const ir::Program* program_;
  PipelineOptions options_;
  bool to_spmd_;
  Fragment fragment_;
  std::optional<ir::StaticRegionTree> oracle_;
  std::vector<ir::Stmt> init_;
  std::vector<ir::Stmt> pre_;
  std::vector<ir::Stmt> finalize_;
  std::map<std::string, uint64_t> stats_;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual void run(ir::Program& program, PassContext& ctx) = 0;
};

class PassManager {
 public:
  // Fires after each pass that ran, with the program in its post-pass
  // state (the fragment splices of run_fragment happen afterwards).
  using Observer =
      std::function<void(const Pass&, const ir::Program&, PassContext&)>;

  // Appends `pass` to the pipeline, enabled.
  Pass& add(std::unique_ptr<Pass> pass);

  // Toggles a registered pass; returns false if no pass has that name.
  bool enable(std::string_view name, bool on);
  bool enabled(std::string_view name) const;

  void set_observer(Observer observer) { observer_ = std::move(observer); }

  // Runs every enabled pass in registration order over `fragment`, then
  // splices ctx.init()/ctx.pre() in front of the fragment and
  // ctx.finalize() after it (or after the shard launch that replaced
  // it).
  void run_fragment(ir::Program& program, Fragment fragment, PassContext& ctx);

 private:
  struct Entry {
    std::unique_ptr<Pass> pass;
    bool enabled = true;
  };
  std::vector<Entry> entries_;
  Observer observer_;
};

// The standard pipeline in paper §3 order:
//
//   projection-normalize -> data-replication -> region-reduction ->
//   copy-placement [A4] -> intersection-opt [A1] -> scalar-reduction
//   [-> sync-insertion -> shard-creation when to_spmd]
//
// Ablations A4/A1 arrive pre-toggled from `options`; A2 (barriers) and
// A3 (flat aliasing) are behavior switches inside sync-insertion and
// the alias oracle, read from PassContext::options().
PassManager make_pipeline(const PipelineOptions& options, bool to_spmd);

// Folds the accumulated "<pass>.<counter>" stats into the classic
// PipelineReport (applied/failure are the caller's to fill in).
PipelineReport report_from_stats(const PassContext& ctx);

}  // namespace cr::passes
