// Selecting the statements control replication applies to (paper §2.2).
//
// CR applies to loops of task calls with no loop-carried dependencies
// except reductions; arbitrary control flow may surround the fragment.
// The optimization is applied automatically to every maximal contiguous
// range of top-level statements that qualifies and contains a launch.
#pragma once

#include <string>

#include "ir/program.h"
#include "passes/common.h"

namespace cr::passes {

// Is this statement (recursively) CR-able?
bool statement_replicable(const ir::Program& program, const ir::Stmt& stmt,
                          std::string* why = nullptr);

// All maximal qualifying ranges, in program order. Control replication
// is a local transformation (paper §1: "it need not be applied only at
// the top level, and can be applied independently to different parts of
// a program"); the pipeline replicates every fragment that contains at
// least one index launch.
std::vector<Fragment> find_fragments(const ir::Program& program,
                                     std::string* why = nullptr);

}  // namespace cr::passes
