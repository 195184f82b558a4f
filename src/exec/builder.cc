#include "exec/builder.h"

namespace prairie::exec {

using common::Result;
using common::Status;

Status ExecutorRegistry::Register(std::string alg_name, AlgFactory factory) {
  if (factories_.count(alg_name) > 0) {
    return Status::AlreadyExists("executor for algorithm '" + alg_name +
                                 "' already registered");
  }
  factories_.emplace(std::move(alg_name), std::move(factory));
  return Status::OK();
}

Result<IterPtr> ExecutorRegistry::Build(const algebra::Expr& plan,
                                        const algebra::Algebra& algebra,
                                        const Database& db) const {
  return BuildNode(plan, algebra, db, /*stats=*/nullptr, /*parent=*/nullptr,
                   /*child_index=*/0);
}

Result<IterPtr> ExecutorRegistry::Build(const algebra::Expr& plan,
                                        const algebra::Algebra& algebra,
                                        const Database& db,
                                        ExecStats* stats) const {
  return BuildNode(plan, algebra, db, stats, /*parent=*/nullptr,
                   /*child_index=*/0);
}

Result<IterPtr> ExecutorRegistry::BuildNode(const algebra::Expr& plan,
                                            const algebra::Algebra& algebra,
                                            const Database& db,
                                            ExecStats* stats, OpStats* parent,
                                            int child_index) const {
  if (plan.is_file()) {
    return Status::ExecError(
        "cannot execute a bare stored file; wrap it in a scan algorithm");
  }
  if (!algebra.is_algorithm(plan.op())) {
    return Status::ExecError("plan node '" + algebra.name(plan.op()) +
                             "' is not an algorithm; optimize first");
  }
  const std::string& name = algebra.name(plan.op());
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound("no executor registered for algorithm '" + name +
                            "'");
  }
  OpStats* node_stats = nullptr;
  if (stats != nullptr) {
    double est_rows = -1;
    auto est = plan.descriptor().Get(stats->est_rows_property());
    if (est.ok()) est_rows = est->ToReal().ValueOr(-1);
    node_stats = stats->NewNode(name, plan.op(), est_rows, parent,
                                child_index);
  }
  PlanBuilder builder(this, &plan, &algebra, &db, stats, node_stats);
  Result<IterPtr> built = it->second(plan, builder);
  if (!built.ok() || node_stats == nullptr) return built;
  return IterPtr(std::make_unique<InstrumentedIterator>(
      std::move(built).ValueUnsafe(), node_stats));
}

Result<IterPtr> PlanBuilder::BuildChild(size_t i) const {
  if (i >= node_->num_children()) {
    return Status::Internal("plan child index out of range");
  }
  return registry_->BuildNode(node_->child(i), *algebra_, *db_, stats_,
                              stats_node_, static_cast<int>(i));
}

Result<const Table*> PlanBuilder::ChildTable(size_t i) const {
  if (i >= node_->num_children() || !node_->child(i).is_file()) {
    return Status::ExecError(
        "algorithm '" + algebra_->name(node_->op()) +
        "' expects a stored file input at position " + std::to_string(i));
  }
  return db_->Require(node_->child(i).file_name());
}

Result<algebra::Value> PlanBuilder::Prop(const std::string& name) const {
  return node_->descriptor().Get(name);
}

}  // namespace prairie::exec
