#include "rt/physical.h"

#include <algorithm>

#include "support/check.h"

namespace cr::rt {

double reduce_identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return 0.0;
    case ReduceOp::kMin:
      return std::numeric_limits<double>::infinity();
    case ReduceOp::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  CR_UNREACHABLE("bad ReduceOp");
}

double reduce_fold(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMin:
      return a < b ? a : b;
    case ReduceOp::kMax:
      return a > b ? a : b;
  }
  CR_UNREACHABLE("bad ReduceOp");
}

int64_t reduce_identity_i64(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return 0;
    case ReduceOp::kMin:
      return std::numeric_limits<int64_t>::max();
    case ReduceOp::kMax:
      return std::numeric_limits<int64_t>::min();
  }
  CR_UNREACHABLE("bad ReduceOp");
}

int64_t reduce_fold_i64(ReduceOp op, int64_t a, int64_t b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMin:
      return a < b ? a : b;
    case ReduceOp::kMax:
      return a > b ? a : b;
  }
  CR_UNREACHABLE("bad ReduceOp");
}

PhysicalInstance::PhysicalInstance(InstanceId id, const RegionForest& forest,
                                   RegionId region, uint32_t node)
    : id_(id),
      region_(region),
      node_(node),
      domain_(&forest.region(region).ispace),
      fields_(forest.region(region).fields.get()) {
  columns_.resize(fields_->num_fields());
  for (const FieldDecl& f : fields_->fields()) {
    if (f.type == FieldType::kF64) {
      columns_[f.id] = std::vector<double>(domain_->size(), 0.0);
    } else {
      columns_[f.id] = std::vector<int64_t>(domain_->size(), 0);
    }
  }
}

PhysicalInstance::Column& PhysicalInstance::column(FieldId f) {
  CR_CHECK(f < columns_.size());
  return columns_[f];
}

const PhysicalInstance::Column& PhysicalInstance::column(FieldId f) const {
  CR_CHECK(f < columns_.size());
  return columns_[f];
}

double PhysicalInstance::read_f64(FieldId f, uint64_t point) const {
  return std::get<std::vector<double>>(column(f))[domain_->rank(point)];
}

void PhysicalInstance::write_f64(FieldId f, uint64_t point, double v) {
  std::get<std::vector<double>>(column(f))[domain_->rank(point)] = v;
}

int64_t PhysicalInstance::read_i64(FieldId f, uint64_t point) const {
  return std::get<std::vector<int64_t>>(column(f))[domain_->rank(point)];
}

void PhysicalInstance::write_i64(FieldId f, uint64_t point, int64_t v) {
  std::get<std::vector<int64_t>>(column(f))[domain_->rank(point)] = v;
}

void PhysicalInstance::reduce_f64(FieldId f, uint64_t point, ReduceOp op,
                                  double v) {
  auto& col = std::get<std::vector<double>>(column(f));
  const uint64_t r = domain_->rank(point);
  col[r] = reduce_fold(op, col[r], v);
}

void PhysicalInstance::fill_f64(FieldId f, double v) {
  auto& col = std::get<std::vector<double>>(column(f));
  std::fill(col.begin(), col.end(), v);
}

PhysicalInstance::StagedPayload PhysicalInstance::gather(
    const support::IntervalSet& points,
    const std::vector<FieldId>& fields) const {
  StagedPayload staged;
  staged.cols.reserve(fields.size());
  for (FieldId f : fields) {
    if (fields_->field(f).type == FieldType::kF64) {
      std::vector<double> col;
      points.for_each_point([&](uint64_t p) { col.push_back(read_f64(f, p)); });
      staged.cols.emplace_back(std::move(col));
    } else {
      std::vector<int64_t> col;
      points.for_each_point([&](uint64_t p) { col.push_back(read_i64(f, p)); });
      staged.cols.emplace_back(std::move(col));
    }
  }
  return staged;
}

void PhysicalInstance::scatter(const StagedPayload& staged,
                               const support::IntervalSet& points,
                               const std::vector<FieldId>& fields) {
  CR_CHECK(staged.cols.size() == fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const FieldId f = fields[i];
    size_t k = 0;
    if (fields_->field(f).type == FieldType::kF64) {
      const auto& col = std::get<std::vector<double>>(staged.cols[i]);
      points.for_each_point([&](uint64_t p) { write_f64(f, p, col[k++]); });
    } else {
      const auto& col = std::get<std::vector<int64_t>>(staged.cols[i]);
      points.for_each_point([&](uint64_t p) { write_i64(f, p, col[k++]); });
    }
  }
}

void PhysicalInstance::scatter_fold(const StagedPayload& staged,
                                    const support::IntervalSet& points,
                                    const std::vector<FieldId>& fields,
                                    ReduceOp op) {
  CR_CHECK(staged.cols.size() == fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const FieldId f = fields[i];
    CR_CHECK_MSG(fields_->field(f).type == FieldType::kF64,
                 "reduction copies support f64 fields only");
    const auto& col = std::get<std::vector<double>>(staged.cols[i]);
    size_t k = 0;
    points.for_each_point(
        [&](uint64_t p) { reduce_f64(f, p, op, col[k++]); });
  }
}

InstanceId InstanceManager::create(RegionId region, uint32_t node) {
  const InstanceId id = static_cast<InstanceId>(instances_.size());
  instances_.push_back(
      std::make_unique<PhysicalInstance>(id, *forest_, region, node));
  return id;
}

PhysicalInstance& InstanceManager::get(InstanceId id) {
  CR_CHECK(id < instances_.size());
  return *instances_[id];
}

const PhysicalInstance& InstanceManager::get(InstanceId id) const {
  CR_CHECK(id < instances_.size());
  return *instances_[id];
}

}  // namespace cr::rt
