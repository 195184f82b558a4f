#include "volcano/rules.h"

#include <algorithm>

#include "common/strings.h"

namespace prairie::volcano {

using algebra::PropertyId;
using algebra::Value;
using algebra::ValueType;
using common::Status;

namespace {

Status CheckPattern(const algebra::Algebra& algebra,
                    const algebra::PatNode& node) {
  if (node.is_stream()) {
    if (node.stream_var <= 0 || node.desc_slot < 0) {
      return Status::RuleError("malformed stream pattern node");
    }
    return Status::OK();
  }
  if (node.op < 0 || node.op >= algebra.size()) {
    return Status::RuleError("pattern references unregistered operation");
  }
  if (static_cast<int>(node.children.size()) != algebra.arity(node.op)) {
    return Status::RuleError("pattern arity mismatch for '" +
                             algebra.name(node.op) + "'");
  }
  if (node.desc_slot < 0) {
    return Status::RuleError("pattern node without descriptor slot");
  }
  for (const algebra::PatNodePtr& c : node.children) {
    PRAIRIE_RETURN_NOT_OK(CheckPattern(algebra, *c));
  }
  return Status::OK();
}

}  // namespace

Status RuleSet::Finalize() {
  if (algebra == nullptr) return Status::RuleError("rule set has no algebra");
  const algebra::PropertySchema& schema = algebra->properties();
  if (cost_prop < 0 || cost_prop >= schema.size()) {
    return Status::RuleError("rule set '" + name +
                             "' has no cost property configured");
  }
  std::sort(phys_props.begin(), phys_props.end());
  phys_props.erase(std::unique(phys_props.begin(), phys_props.end()),
                   phys_props.end());
  for (PropertyId id : phys_props) {
    if (id < 0 || id >= schema.size()) {
      return Status::RuleError("physical property id out of range");
    }
    if (id == cost_prop) {
      return Status::RuleError("cost property cannot also be physical");
    }
  }
  std::sort(logical_props.begin(), logical_props.end());
  logical_props.erase(
      std::unique(logical_props.begin(), logical_props.end()),
      logical_props.end());
  for (PropertyId id : logical_props) {
    if (id < 0 || id >= schema.size() || id == cost_prop ||
        std::binary_search(phys_props.begin(), phys_props.end(), id)) {
      return Status::RuleError(
          "logical property id invalid or already classified");
    }
  }
  if (arg_props.empty()) {
    for (PropertyId id = 0; id < schema.size(); ++id) {
      if (id == cost_prop) continue;
      if (std::binary_search(phys_props.begin(), phys_props.end(), id)) {
        continue;
      }
      if (std::binary_search(logical_props.begin(), logical_props.end(),
                             id)) {
        continue;
      }
      arg_props.push_back(id);
    }
  }
  for (const TransRule& r : trans_rules) {
    if (r.lhs == nullptr || r.rhs == nullptr) {
      return Status::RuleError("trans_rule '" + r.name + "' missing a side");
    }
    PRAIRIE_RETURN_NOT_OK(CheckPattern(*algebra, *r.lhs)
                              .WithContext("trans_rule '" + r.name + "'"));
    PRAIRIE_RETURN_NOT_OK(CheckPattern(*algebra, *r.rhs)
                              .WithContext("trans_rule '" + r.name + "'"));
    int max_slot = std::max(r.lhs->MaxDescSlot(), r.rhs->MaxDescSlot());
    if (r.num_slots <= max_slot) {
      return Status::RuleError("trans_rule '" + r.name +
                               "': num_slots too small");
    }
  }
  for (const ImplRule& r : impl_rules) {
    if (r.op < 0 || r.op >= algebra->size() || algebra->is_algorithm(r.op)) {
      return Status::RuleError("impl_rule '" + r.name +
                               "': LHS must be an operator");
    }
    if (r.alg < 0 || r.alg >= algebra->size() ||
        !algebra->is_algorithm(r.alg)) {
      return Status::RuleError("impl_rule '" + r.name +
                               "': RHS must be an algorithm");
    }
    if (algebra->arity(r.op) != r.arity ||
        algebra->arity(r.alg) != r.arity) {
      return Status::RuleError("impl_rule '" + r.name + "': arity mismatch");
    }
    if (static_cast<int>(r.rhs_input_slots.size()) != r.arity ||
        r.alg_slot < 0 || r.alg_slot >= r.num_slots) {
      return Status::RuleError("impl_rule '" + r.name +
                               "': malformed slot layout");
    }
  }
  for (const Enforcer& e : enforcers) {
    if (e.alg < 0 || e.alg >= algebra->size() ||
        !algebra->is_algorithm(e.alg)) {
      return Status::RuleError("enforcer '" + e.name +
                               "' must name an algorithm");
    }
    if (e.prop < 0 || e.prop >= schema.size() || !IsPhysical(e.prop)) {
      return Status::RuleError("enforcer '" + e.name +
                               "' must enforce a physical property");
    }
  }
  trans_rules_by_op.assign(static_cast<size_t>(algebra->size()), {});
  impl_rules_by_op.assign(static_cast<size_t>(algebra->size()), {});
  for (size_t i = 0; i < trans_rules.size(); ++i) {
    // A bare-stream LHS root (op == -1) can never match a memo expression,
    // so it belongs to no bucket.
    if (trans_rules[i].lhs->is_stream()) continue;
    trans_rules_by_op[static_cast<size_t>(trans_rules[i].lhs->op)].push_back(
        static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < impl_rules.size(); ++i) {
    impl_rules_by_op[static_cast<size_t>(impl_rules[i].op)].push_back(
        static_cast<uint32_t>(i));
  }
  return Status::OK();
}

algebra::PropertySlice RuleSet::ArgSlice() const {
  return algebra::PropertySlice{arg_props};
}

algebra::PropertySlice RuleSet::PhysSlice() const {
  return algebra::PropertySlice{phys_props};
}

bool RuleSet::IsPhysical(PropertyId id) const {
  return std::find(phys_props.begin(), phys_props.end(), id) !=
         phys_props.end();
}

std::string RuleSet::ToString() const {
  std::string out = "volcano rule set '" + name + "'\n";
  out += algebra->ToString() + "\n";
  const algebra::PropertySchema& schema = algebra->properties();
  out += "physical properties: ";
  std::vector<std::string> parts;
  for (PropertyId id : phys_props) parts.push_back(schema.decl(id).name);
  out += common::Join(parts, ", ") + "\n";
  out += "cost property: " + schema.decl(cost_prop).name + "\n\n";
  for (const TransRule& r : trans_rules) {
    out += "trans_rule " + r.name + ": " + r.lhs->ToString(*algebra) +
           " -> " + r.rhs->ToString(*algebra) + "\n";
  }
  out += "\n";
  for (const ImplRule& r : impl_rules) {
    out += "impl_rule " + r.name + ": " + algebra->name(r.op) + " -> " +
           algebra->name(r.alg) + "\n";
  }
  out += "\n";
  for (const Enforcer& e : enforcers) {
    out += "enforcer " + e.name + ": " + algebra->name(e.alg) +
           " enforces " + schema.decl(e.prop).name + "\n";
  }
  return out;
}

bool PropSatisfies(const Value& have, const Value& want) {
  if (want.is_null()) return true;
  // A DONT_CARE order requirement is satisfied by anything, including a
  // plan that reports no order at all.
  if (want.type() == ValueType::kSort && want.AsSort().is_dont_care()) {
    return true;
  }
  if (have.is_null()) return false;
  if (have.type() == ValueType::kSort && want.type() == ValueType::kSort) {
    return have.AsSort().Satisfies(want.AsSort());
  }
  return have == want;
}

}  // namespace prairie::volcano
