#include "passes/shard_creation.h"

#include "support/check.h"

namespace cr::passes {

void shard_creation(ir::Program& program, Fragment& fragment,
                    uint32_t num_shards) {
  CR_CHECK(num_shards > 0);
  ir::Stmt shard;
  shard.kind = ir::StmtKind::kShardBody;
  shard.num_shards = num_shards;
  shard.label = "shard";
  shard.body.assign(
      std::make_move_iterator(program.body.begin() +
                              static_cast<long>(fragment.begin)),
      std::make_move_iterator(program.body.begin() +
                              static_cast<long>(fragment.end)));
  program.body.erase(program.body.begin() + static_cast<long>(fragment.begin),
                     program.body.begin() + static_cast<long>(fragment.end));
  program.body.insert(program.body.begin() + static_cast<long>(fragment.begin),
                      std::move(shard));
  fragment.end = fragment.begin + 1;
}

}  // namespace cr::passes
