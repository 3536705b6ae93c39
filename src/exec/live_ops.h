// Quiescence tracking: every operation an engine issues must complete by
// the end of the run. One still pending when the drain ends means an
// event cycle (a transformation or executor bug), which must fail loudly.
//
// One compact (kind, statement, color, completion) record per op is the
// whole liveness record: the end-of-run check scans it for completions
// that never triggered, and builds labels only when a run fails to
// quiesce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "sim/simulator.h"

namespace cr::exec {

class LiveOps {
 public:
  enum class Kind : uint8_t { kTask, kSingle, kFill };

  // Record `done`, the completion of op (kind, s, color).
  void track(sim::Event done, Kind kind, const ir::Stmt& s, uint64_t color);

  // Aborts with "execution did not quiesce; stuck ops:" and the labels of
  // the first 20 tracked ops (in issue order) that never completed.
  void check_quiesced(const sim::Simulator& sim,
                      const ir::Program& program) const;

 private:
  struct Op {
    const ir::Stmt* stmt;
    uint64_t color;
    sim::Event done;
    Kind kind;
  };
  static std::string label(const Op& op, const ir::Program& program);

  std::vector<Op> ops_;
};

}  // namespace cr::exec
