// Builds executable iterator trees from access plans.
//
// The mapping from algorithm names to iterators is optimizer-specific
// (each rule set defines its own algorithms and descriptor properties),
// so optimizers register factories here; the registry walks the plan.

#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "algebra/expr.h"
#include "exec/operators.h"
#include "exec/stats.h"

namespace prairie::exec {

class PlanBuilder;

/// Factory for one algorithm: builds the iterator for `node`, using the
/// builder to construct children and to reach the database.
using AlgFactory = std::function<common::Result<IterPtr>(
    const algebra::Expr& node, PlanBuilder& builder)>;

/// \brief Name-keyed registry of algorithm factories.
class ExecutorRegistry {
 public:
  common::Status Register(std::string alg_name, AlgFactory factory);

  /// Builds the iterator tree for an access plan.
  common::Result<IterPtr> Build(const algebra::Expr& plan,
                                const algebra::Algebra& algebra,
                                const Database& db) const;

  /// Like Build, but additionally attaches runtime instrumentation: every
  /// algorithm node gets an OpStats node in `stats` (est_rows read from
  /// the descriptor property stats->est_rows_property()) and its iterator
  /// is wrapped in an InstrumentedIterator. A null `stats` degrades to the
  /// plain Build.
  common::Result<IterPtr> Build(const algebra::Expr& plan,
                                const algebra::Algebra& algebra,
                                const Database& db, ExecStats* stats) const;

 private:
  friend class PlanBuilder;

  common::Result<IterPtr> BuildNode(const algebra::Expr& plan,
                                    const algebra::Algebra& algebra,
                                    const Database& db, ExecStats* stats,
                                    OpStats* parent, int child_index) const;

  std::unordered_map<std::string, AlgFactory> factories_;
};

/// \brief Context handed to factories while building one plan node.
class PlanBuilder {
 public:
  PlanBuilder(const ExecutorRegistry* registry, const algebra::Expr* node,
              const algebra::Algebra* algebra, const Database* db,
              ExecStats* stats = nullptr, OpStats* stats_node = nullptr)
      : registry_(registry),
        node_(node),
        algebra_(algebra),
        db_(db),
        stats_(stats),
        stats_node_(stats_node) {}

  const algebra::Expr& node() const { return *node_; }
  const algebra::Algebra& algebra() const { return *algebra_; }
  const Database& db() const { return *db_; }

  bool ChildIsFile(size_t i) const { return node_->child(i).is_file(); }

  /// Builds the iterator for child `i` (which must be an algorithm node).
  common::Result<IterPtr> BuildChild(size_t i) const;

  /// The stored table behind child `i` (which must be a file leaf).
  common::Result<const Table*> ChildTable(size_t i) const;

  /// Reads a property of this node's descriptor, failing if unset.
  common::Result<algebra::Value> Prop(const std::string& name) const;

 private:
  const ExecutorRegistry* registry_;
  const algebra::Expr* node_;
  const algebra::Algebra* algebra_;
  const Database* db_;
  ExecStats* stats_;      ///< Null when building uninstrumented.
  OpStats* stats_node_;   ///< This node's stats (parent of children's).
};

}  // namespace prairie::exec
