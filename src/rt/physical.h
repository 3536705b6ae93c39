// Physical instances: the actual storage behind logical regions in the
// distributed-memory implementation of region semantics (paper §3:
// "S and P have distinct storage and the implementation must explicitly
// manage data coherence").
//
// Each instance materializes one logical region's index space on one
// simulated node, one array per field, indexed by the rank of the element
// id within the index space. Data replication (paper §3.1) gives every
// subregion of every partition its own instance; copies move the shared
// elements between them.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "rt/region_tree.h"

namespace cr::rt {

using InstanceId = uint32_t;

// Reduction operators for region and scalar reductions (paper §4.3-4.4).
enum class ReduceOp : uint8_t { kSum, kMin, kMax };

double reduce_identity(ReduceOp op);
double reduce_fold(ReduceOp op, double a, double b);
int64_t reduce_identity_i64(ReduceOp op);
int64_t reduce_fold_i64(ReduceOp op, int64_t a, int64_t b);

class PhysicalInstance {
 public:
  PhysicalInstance(InstanceId id, const RegionForest& forest, RegionId region,
                   uint32_t node);

  InstanceId id() const { return id_; }
  RegionId region() const { return region_; }
  uint32_t node() const { return node_; }
  const IndexSpace& domain() const { return *domain_; }

  // Element accessors addressed by global element id.
  double read_f64(FieldId f, uint64_t point) const;
  void write_f64(FieldId f, uint64_t point, double v);
  int64_t read_i64(FieldId f, uint64_t point) const;
  void write_i64(FieldId f, uint64_t point, int64_t v);
  void reduce_f64(FieldId f, uint64_t point, ReduceOp op, double v);

  // Fill every element of `f` with a value (used to initialize reduction
  // instances to the identity).
  void fill_f64(FieldId f, double v);

  // A gathered payload: one column per requested field, values in
  // point-iteration order. Copies gather `points` (within both domains)
  // on the source side at network injection and scatter them on the
  // destination side at delivery, the way RDMA reads the payload when
  // the message is injected. (Equivalent to reading at delivery time:
  // anti-dependences order any writer of the source after the copy
  // completes.) scatter_fold applies the reduction instead of
  // overwriting (the paper's reduction copies, §4.3).
  struct StagedPayload {
    std::vector<std::variant<std::vector<double>, std::vector<int64_t>>>
        cols;
  };
  StagedPayload gather(const support::IntervalSet& points,
                       const std::vector<FieldId>& fields) const;
  void scatter(const StagedPayload& staged,
               const support::IntervalSet& points,
               const std::vector<FieldId>& fields);
  void scatter_fold(const StagedPayload& staged,
                    const support::IntervalSet& points,
                    const std::vector<FieldId>& fields, ReduceOp op);

 private:
  using Column = std::variant<std::vector<double>, std::vector<int64_t>>;
  Column& column(FieldId f);
  const Column& column(FieldId f) const;

  InstanceId id_;
  RegionId region_;
  uint32_t node_;
  const IndexSpace* domain_;  // owned by the forest; forest outlives us
  const FieldSpace* fields_;
  mutable std::vector<Column> columns_;  // lazily sized per field
};

// Owns all instances of an execution. Instances are created per
// (logical region, placement) by the executors.
class InstanceManager {
 public:
  explicit InstanceManager(const RegionForest& forest) : forest_(&forest) {}

  InstanceId create(RegionId region, uint32_t node);
  PhysicalInstance& get(InstanceId id);
  const PhysicalInstance& get(InstanceId id) const;
  size_t count() const { return instances_.size(); }

 private:
  const RegionForest* forest_;
  std::vector<std::unique_ptr<PhysicalInstance>> instances_;
};

}  // namespace cr::rt
