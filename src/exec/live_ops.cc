#include "exec/live_ops.h"

#include "support/check.h"

namespace cr::exec {

void LiveOps::track(sim::Event done, Kind kind, const ir::Stmt& s,
                    uint64_t color) {
  ops_.push_back({&s, color, done, kind});
}

std::string LiveOps::label(const Op& op, const ir::Program& program) {
  // Appended, not `"[" + std::to_string(...)`: GCC 12 at -O3 reports a
  // false -Wrestrict inside that operator+.
  std::string color = "[";
  color += std::to_string(op.color) + "]";
  switch (op.kind) {
    case Kind::kTask:
      return "task " + program.task(op.stmt->task).name + color;
    case Kind::kSingle:
      return "single " + program.task(op.stmt->task).name;
    case Kind::kFill:
      return "fill " + std::to_string(op.stmt->fill_dst) + color;
  }
  CR_UNREACHABLE("bad op kind");
}

void LiveOps::check_quiesced(const sim::Simulator& sim,
                             const ir::Program& program) const {
  std::string msg = "execution did not quiesce; stuck ops:";
  int shown = 0;
  for (const Op& op : ops_) {
    if (sim.has_triggered(op.done)) continue;
    msg += "\n  " + label(op, program);
    if (++shown >= 20) break;
  }
  CR_CHECK_MSG(shown == 0, msg.c_str());
}

}  // namespace cr::exec
