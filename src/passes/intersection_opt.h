// Copy intersection optimization (paper §3.3, Figure 4b).
//
// Data replication emits copies between whole partitions — conceptually
// all |I|² subregion pairs. Only intersecting pairs move data, and for
// scalable codes there are O(1) such pairs per subregion. This pass:
//   - allocates one intersection table per distinct (src, dst) partition
//     pair appearing in fragment copies;
//   - emits kIntersect statements computing those tables (shallow pass
//     via rt::IntervalIndex, then complete per-pair element sets) hoisted
//     in front of the fragment — the "lifted to the beginning of program
//     execution" placement the paper reports;
//   - tags each copy with its table so executors iterate only the
//     non-empty pairs.
#pragma once

#include <vector>

#include "ir/program.h"
#include "passes/common.h"

namespace cr::passes {

struct IntersectionOptResult {
  // kIntersect statements to place before the fragment.
  std::vector<ir::Stmt> tables;
  size_t copies_tagged = 0;
};

IntersectionOptResult intersection_opt(ir::Program& program,
                                       const Fragment& fragment);

}  // namespace cr::passes
