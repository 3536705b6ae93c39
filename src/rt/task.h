// Task privileges and region requirements (paper §2.1).
//
// Tasks declare privileges on their region arguments; execution is
// apparently sequential, and two tasks may run in parallel only if they
// use disjoint regions or compatible privileges (both read, or both
// reduce with the same operator). Privileges are *strict*: all analysis
// happens at this level, never inside task bodies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/physical.h"
#include "rt/region_tree.h"

namespace cr::rt {

enum class Privilege : uint8_t {
  kReadOnly,
  kReadWrite,
  kWriteDiscard,  // write without reading prior contents
  kReduce,        // fold with `redop`; commutes with same-op reductions
};

inline bool privilege_writes(Privilege p) {
  return p == Privilege::kReadWrite || p == Privilege::kWriteDiscard;
}
inline bool privilege_reads(Privilege p) {
  return p == Privilege::kReadOnly || p == Privilege::kReadWrite;
}

// Do two uses of potentially overlapping data require ordering?
inline bool privileges_conflict(Privilege a, ReduceOp a_op, Privilege b,
                                ReduceOp b_op) {
  if (a == Privilege::kReadOnly && b == Privilege::kReadOnly) return false;
  if (a == Privilege::kReduce && b == Privilege::kReduce && a_op == b_op) {
    return false;
  }
  return true;
}

inline const char* privilege_name(Privilege p) {
  switch (p) {
    case Privilege::kReadOnly:
      return "reads";
    case Privilege::kReadWrite:
      return "reads writes";
    case Privilege::kWriteDiscard:
      return "writes";
    case Privilege::kReduce:
      return "reduces";
  }
  return "?";
}

// One region argument of one task instance, fully concrete.
struct Requirement {
  RegionId region = kNoId;
  Privilege privilege = Privilege::kReadOnly;
  ReduceOp redop = ReduceOp::kSum;
  std::vector<FieldId> fields;
};

}  // namespace cr::rt
