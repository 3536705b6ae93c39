#include "rt/runtime.h"

namespace cr::rt {

Runtime::Runtime(RuntimeConfig config)
    : config_(config),
      machine_(sim_, config.machine),
      network_(sim_, config.machine.nodes, config.network),
      instances_(forest_),
      deps_(forest_),
      copies_(network_, forest_,
              config.real_data ? &instances_ : nullptr) {}

}  // namespace cr::rt
