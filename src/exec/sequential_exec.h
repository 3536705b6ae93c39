// The sequential reference executor: the correctness oracle.
//
// Interprets a *source* program with literal sequential semantics — every
// region lives in exactly one master store, every task runs immediately
// and in program order, scalar reductions fold in color order. No
// simulator, no copies, no partition instances. Control replication must
// be observationally equivalent to this.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "ir/program.h"

namespace cr::exec {

struct SequentialResult {
  double read_f64(rt::RegionId root, rt::FieldId f, uint64_t point) const;
  double scalar(ir::ScalarId id) const;

  // Per root region: one column per field. Exposed for the executor
  // implementation and for whole-region comparisons in tests.
  struct Store {
    std::map<rt::FieldId, std::vector<double>> f64;
    std::map<rt::FieldId, std::vector<int64_t>> i64;
    const rt::IndexSpace* domain = nullptr;
  };
  std::map<rt::RegionId, Store> stores_;
  std::vector<double> scalars_;
};

SequentialResult run_sequential(const ir::Program& program);

}  // namespace cr::exec
