// Shard creation (paper §3.5, Figure 4d): the final stage replicates the
// control flow itself.
//
// The fragment's statements become the body of a shard task launched
// once per shard. Each shard owns a block of every index launch's color
// space (SI = block(I, X)) and of every copy's source colors; the
// intersection tables are filtered per shard (SIQPB). Initialization and
// finalization stay with the main task. The blocking itself is performed
// by the SPMD executor from `num_shards` (rt::block_range); this pass
// restructures the IR.
#pragma once

#include "ir/program.h"
#include "passes/common.h"

namespace cr::passes {

// Replaces program.body[fragment] with one kShardBody statement; the
// fragment is updated to the new single-statement range.
void shard_creation(ir::Program& program, Fragment& fragment,
                    uint32_t num_shards);

}  // namespace cr::passes
