// The Volcano rule model (paper §3, Table 3/4): trans_rules, impl_rules
// and enforcers driving the generic top-down search engine.
//
// Rule behaviour is expressed as callbacks over a BindingView (the
// descriptor slots of one rule firing). Hand-coded Volcano rule sets
// supply compiled C++ lambdas; the P2V pre-processor supplies lambdas
// that interpret Prairie action ASTs. Both drive the same engine, which
// is exactly the comparison the paper's experiments make.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algebra/descriptor_store.h"
#include "algebra/pattern.h"
#include "algebra/property.h"
#include "common/result.h"

namespace prairie::catalog {
class Catalog;
}

namespace prairie::volcano {

using GroupId = int;

/// \brief Descriptor slots bound for one rule firing, plus ambient context.
///
/// Slot numbering matches the rule's pattern annotation (the D1..Dn of the
/// paper, 0-based). Stream variables additionally expose the memo group
/// they matched.
struct BindingView {
  std::vector<algebra::Descriptor> slots;
  std::vector<GroupId> streams;  ///< streams[v-1] = group bound to ?v.
  const algebra::Algebra* algebra = nullptr;
  const catalog::Catalog* catalog = nullptr;
  /// The active memo's descriptor store: rule actions may freeze finished
  /// slot descriptors through it (DescriptorBuilder::Freeze). Null when the
  /// binding was built outside an optimization (some unit tests).
  algebra::DescriptorStore* store = nullptr;

  algebra::Descriptor& slot(int i) { return slots[static_cast<size_t>(i)]; }
  const algebra::Descriptor& slot(int i) const {
    return slots[static_cast<size_t>(i)];
  }
};

/// Condition callback (Volcano cond_code): may read and fill slots;
/// returning false rejects the firing.
using CondFn = std::function<common::Result<bool>(BindingView&)>;

/// Action callback (Volcano appl_code / property-derivation code).
using ActionFn = std::function<common::Status(BindingView&)>;

/// \brief A Volcano transformation rule: logical expression to logical
/// expression.
struct TransRule {
  std::string name;
  algebra::PatNodePtr lhs;
  algebra::PatNodePtr rhs;
  int num_slots = 0;
  /// cond_code: runs the Prairie pre-test statements then the test. A null
  /// condition is TRUE.
  CondFn condition;
  /// appl_code: the Prairie post-test statements; completes the RHS node
  /// descriptors. Null is a no-op.
  ActionFn apply;
};

/// \brief A Volcano implementation rule: one operator to one algorithm.
///
/// Slot layout (k = arity): 0..k-1 input streams; k the operator
/// descriptor; rhs_input_slots[i] the descriptor of RHS input i (== i when
/// the input keeps its LHS descriptor, or a fresh slot when the rule
/// pushes new requirements, e.g. sort order, onto that input); alg_slot
/// the algorithm descriptor.
struct ImplRule {
  std::string name;
  algebra::OpId op = -1;
  algebra::OpId alg = -1;
  int arity = 0;
  std::vector<int> rhs_input_slots;
  int alg_slot = -1;
  int num_slots = 0;

  /// cond_code; at evaluation time only slots 0..k are bound.
  CondFn condition;
  /// Runs before the inputs are optimized; fills the algorithm descriptor
  /// and any re-annotated input descriptors whose physical annotations
  /// become the inputs' required properties (Volcano's "get_input_pv").
  ActionFn pre_opt;
  /// Runs after the inputs are optimized (their costs and delivered
  /// physical properties are merged into the RHS input slots); computes
  /// the algorithm's total cost and derived physical properties
  /// (Volcano's "cost" + "derive_phy_prop").
  ActionFn post_opt;

  int op_slot() const { return arity; }
};

/// \brief A Volcano enforcer: an algorithm that can produce a required
/// physical property on top of any plan for the same group (e.g.
/// Merge_sort enforcing a tuple order).
///
/// Slot layout: 0 the input stream descriptor, 1 the virtual operator
/// descriptor carrying the requirement, 2 the algorithm descriptor.
struct Enforcer {
  std::string name;
  algebra::OpId alg = -1;
  algebra::PropertyId prop = -1;  ///< The physical property it enforces.
  static constexpr int kInputSlot = 0;
  static constexpr int kOpSlot = 1;
  static constexpr int kAlgSlot = 2;
  static constexpr int kNumSlots = 3;

  /// Whether this enforcer can produce `required` (null fn: any non-null
  /// requirement is accepted).
  std::function<bool(const algebra::Value& required)> applicable;
  CondFn condition;
  ActionFn pre_opt;
  ActionFn post_opt;
};

/// \brief A complete Volcano specification: algebra + rules + the property
/// classification (cost / physical / argument) the engine needs.
struct RuleSet {
  std::string name;
  std::shared_ptr<algebra::Algebra> algebra;
  std::vector<TransRule> trans_rules;
  std::vector<ImplRule> impl_rules;
  std::vector<Enforcer> enforcers;

  /// Physical properties: requested/propagated orders etc. They are
  /// excluded from memo identity (plans within a group differ on them).
  std::vector<algebra::PropertyId> phys_props;
  /// The cost property.
  algebra::PropertyId cost_prop = -1;
  /// Logical properties (Volcano Table-3 sense): estimates that belong to
  /// the whole equivalence class — cardinality, tuple size. They are
  /// excluded from memo identity: two derivation paths of the same
  /// expression may compute them with different floating-point rounding.
  std::vector<algebra::PropertyId> logical_props;
  /// Operator/algorithm argument properties: everything else; they define
  /// memo identity. Filled by Finalize() when left empty.
  std::vector<algebra::PropertyId> arg_props;

  /// Per-operator rule dispatch index, built by Finalize(): element `op`
  /// lists the indexes (into trans_rules / impl_rules) of the rules whose
  /// LHS root is `op`, so the engine touches only rules that can match an
  /// expression instead of scanning the whole rule vector. Immutable after
  /// Finalize(), so N optimizer threads may share it freely. The engine
  /// refuses (RuleError) to search a rule set that skipped Finalize().
  std::vector<std::vector<uint32_t>> trans_rules_by_op;
  std::vector<std::vector<uint32_t>> impl_rules_by_op;

  /// Computes arg_props as schema minus phys minus cost, checks basic
  /// consistency (registered ops, arities, slot layouts, cost declared),
  /// and builds the per-operator dispatch index.
  common::Status Finalize();

  /// The memo-identity slice (arg_props).
  algebra::PropertySlice ArgSlice() const;
  /// The physical-property slice.
  algebra::PropertySlice PhysSlice() const;

  bool IsPhysical(algebra::PropertyId id) const;

  /// Human-readable specification dump (used by the productivity bench).
  std::string ToString() const;
};

/// True if delivered property value `have` satisfies requirement `want`
/// (null `want` is always satisfied; sort specs use prefix satisfaction;
/// anything else requires equality).
bool PropSatisfies(const algebra::Value& have, const algebra::Value& want);

}  // namespace prairie::volcano
