#include "exec/sequential_exec.h"

#include "support/check.h"

namespace cr::exec {

namespace {

using Store = SequentialResult;

class SeqContext;

class SequentialExecutorImpl {
 public:
  explicit SequentialExecutorImpl(const ir::Program& program)
      : p_(program), forest_(*program.forest) {}

  SequentialResult run() {
    for (const ir::ScalarDecl& s : p_.scalars) {
      result_.scalars_.push_back(s.init);
    }
    exec_body(p_.body);
    return std::move(result_);
  }

  // --- storage ---------------------------------------------------------

  SequentialResult::Store& store_for(rt::RegionId region) {
    const rt::RegionId root = forest_.region(region).root;
    auto [it, inserted] = result_.stores_.try_emplace(root);
    if (inserted) {
      const rt::RegionNode& node = forest_.region(root);
      it->second.domain = &node.ispace;
      for (const rt::FieldDecl& f : node.fields->fields()) {
        if (f.type == rt::FieldType::kF64) {
          it->second.f64[f.id].assign(node.ispace.size(), 0.0);
        } else {
          it->second.i64[f.id].assign(node.ispace.size(), 0);
        }
      }
    }
    return it->second;
  }

  // --- interpretation --------------------------------------------------

  void exec_body(const std::vector<ir::Stmt>& body) {
    for (const ir::Stmt& s : body) exec_stmt(s);
  }

  void exec_stmt(const ir::Stmt& s) {
    switch (s.kind) {
      case ir::StmtKind::kForTime:
        for (uint64_t t = 0; t < s.trip_count; ++t) exec_body(s.body);
        return;
      case ir::StmtKind::kIndexLaunch:
        exec_launch(s);
        return;
      case ir::StmtKind::kSingleTask:
        exec_single(s);
        return;
      case ir::StmtKind::kScalarOp:
        s.scalar_fn(result_.scalars_, result_.scalars_);
        return;
      case ir::StmtKind::kCopy:
        // A source copy between two partitions of one region: both name
        // the same data, which the oracle stores once per root.
        CR_CHECK_MSG(s.copy_src != rt::kNoId && s.copy_dst != rt::kNoId &&
                         !s.copy_reduction,
                     "compiler statement in source program");
        return;
      default:
        CR_UNREACHABLE("compiler statement in source program");
    }
  }

  void exec_launch(const ir::Stmt& s);
  void exec_single(const ir::Stmt& s);

  const ir::Program& p_;
  const rt::RegionForest& forest_;
  SequentialResult result_;
  // Scalar reduction accumulator for the launch currently executing.
  double* red_acc_ = nullptr;
  rt::ReduceOp red_op_ = rt::ReduceOp::kSum;
};

// Task context bound to master stores.
class SeqContext final : public ir::TaskContext {
 public:
  SeqContext(SequentialExecutorImpl& exec, const ir::TaskDecl& decl)
      : exec_(exec), decl_(decl) {}

  std::vector<SequentialResult::Store*> stores;
  std::vector<const rt::IndexSpace*> domains;  // per param
  const rt::IndexSpace* launch_domain = nullptr;

  const rt::IndexSpace& domain() const override { return *launch_domain; }
  const rt::IndexSpace& param_domain(size_t k) const override {
    return *domains[k];
  }

  double read_f64(size_t k, rt::FieldId f, uint64_t pt) const override {
    check_read(k);
    return stores[k]->f64.at(f)[rank(k, pt)];
  }
  void write_f64(size_t k, rt::FieldId f, uint64_t pt, double v) override {
    check_write(k);
    stores[k]->f64.at(f)[rank(k, pt)] = v;
  }
  int64_t read_i64(size_t k, rt::FieldId f, uint64_t pt) const override {
    check_read(k);
    return stores[k]->i64.at(f)[rank(k, pt)];
  }
  void write_i64(size_t k, rt::FieldId f, uint64_t pt, int64_t v) override {
    check_write(k);
    stores[k]->i64.at(f)[rank(k, pt)] = v;
  }
  void reduce_f64(size_t k, rt::FieldId f, uint64_t pt, double v) override {
    CR_DCHECK(decl_.params[k].privilege == rt::Privilege::kReduce);
    auto& col = stores[k]->f64.at(f);
    const uint64_t r = rank(k, pt);
    col[r] = rt::reduce_fold(decl_.params[k].redop, col[r], v);
  }
  double scalar(ir::ScalarId s) const override {
    return exec_.result_.scalars_[s];
  }
  void reduce_scalar(double v) override {
    CR_CHECK_MSG(exec_.red_acc_ != nullptr,
                 "reduce_scalar outside a scalar-reduction launch");
    *exec_.red_acc_ = rt::reduce_fold(exec_.red_op_, *exec_.red_acc_, v);
  }

 private:
  uint64_t rank(size_t k, uint64_t pt) const {
    // Master stores index by the root region's rank.
    return stores[k]->domain->rank(pt);
  }
  void check_read([[maybe_unused]] size_t k) const {
    CR_DCHECK(rt::privilege_reads(decl_.params[k].privilege));
  }
  void check_write([[maybe_unused]] size_t k) const {
    CR_DCHECK(rt::privilege_writes(decl_.params[k].privilege));
  }

  SequentialExecutorImpl& exec_;
  const ir::TaskDecl& decl_;
};

void SequentialExecutorImpl::exec_launch(const ir::Stmt& s) {
  const ir::TaskDecl& decl = p_.task(s.task);
  CR_CHECK_MSG(decl.kernel, "sequential execution requires kernels");

  double acc = 0;
  if (s.scalar_red) {
    acc = rt::reduce_identity(s.scalar_red->op);
    red_acc_ = &acc;
    red_op_ = s.scalar_red->op;
  }
  for (uint64_t i = 0; i < s.launch_colors; ++i) {
    SeqContext ctx(*this, decl);
    for (const ir::RegionArg& a : s.args) {
      const uint64_t color = a.proj(i);
      const rt::RegionId sub = forest_.subregion(a.partition, color);
      ctx.stores.push_back(&store_for(sub));
      ctx.domains.push_back(&forest_.region(sub).ispace);
    }
    ctx.launch_domain = ctx.domains[decl.domain_param];
    decl.kernel(ctx);
  }
  if (s.scalar_red) {
    red_acc_ = nullptr;
    result_.scalars_[s.scalar_red->target] = acc;
  }
}

void SequentialExecutorImpl::exec_single(const ir::Stmt& s) {
  const ir::TaskDecl& decl = p_.task(s.task);
  CR_CHECK_MSG(decl.kernel, "sequential execution requires kernels");
  SeqContext ctx(*this, decl);
  for (rt::RegionId r : s.regions) {
    ctx.stores.push_back(&store_for(r));
    ctx.domains.push_back(&forest_.region(r).ispace);
  }
  ctx.launch_domain = ctx.domains[decl.domain_param];
  decl.kernel(ctx);
}

}  // namespace

double SequentialResult::read_f64(rt::RegionId root, rt::FieldId f,
                                  uint64_t point) const {
  const Store& s = stores_.at(root);
  return s.f64.at(f)[s.domain->rank(point)];
}

double SequentialResult::scalar(ir::ScalarId id) const {
  return scalars_.at(id);
}

SequentialResult run_sequential(const ir::Program& program) {
  SequentialExecutorImpl impl(program);
  return impl.run();
}

}  // namespace cr::exec
