#include "optimizers/volcano_hand.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <span>

#include "catalog/catalog.h"
#include "optimizers/props.h"

namespace prairie::opt {

using algebra::Algebra;
using algebra::Attr;
using algebra::AttrList;
using algebra::Descriptor;
using algebra::OpId;
using algebra::PatNode;
using algebra::PatNodePtr;
using algebra::PooledAttrs;
using algebra::Predicate;
using algebra::PredicateRef;
using algebra::SortSpec;
using algebra::Value;
using algebra::ValueType;
using common::Result;
using common::Status;
using volcano::BindingView;
using volcano::Enforcer;
using volcano::ImplRule;
using volcano::RuleSet;
using volcano::TransRule;

namespace {

// ---------------------------------------------------------------------------
// Support functions (the hand-written C code of a Volcano rule set)
// ---------------------------------------------------------------------------

// GetPred borrows from the slot value it reads (or from a shared
// constant): its result must not be used after a write to the same slot
// property. GetAttrs returns a pooled list, which outlives every slot.

const PredicateRef& GetPred(const Value& v) {
  if (v.is_null() || v.type() != ValueType::kPred || v.AsPred() == nullptr) {
    return Predicate::True();
  }
  return v.AsPred();
}

double GetReal(const Value& v, double def = 0) { return v.ToReal().ValueOr(def); }

PooledAttrs GetAttrs(const Value& v) {
  return v.is_null() ? algebra::EmptyAttrs() : v.AsPooledAttrs();
}

}  // namespace

namespace hand {

namespace {

/// The ids of an equi-join conjunct's left and right attributes: the first
/// and last of its referenced list, which holds one id when both sides name
/// the same attribute.
std::array<algebra::AttrId, 2> EquiJoinIds(const Predicate& c) {
  const std::vector<algebra::AttrId>& ids = c.ReferencedAttrs()->ids;
  return {ids.front(), ids.back()};
}

}  // namespace

PredicateRef ConjOver(const PredicateRef& pred, PooledAttrs attrs, bool over) {
  const std::span<const PredicateRef> cs = algebra::Conjuncts(pred);
  const auto qualifies = [&](const PredicateRef& c) {
    return c->ReferencedAttrs()->set.SubsetOf(attrs->set) == over;
  };
  const size_t kept =
      static_cast<size_t>(std::count_if(cs.begin(), cs.end(), qualifies));
  if (kept == cs.size()) return pred;
  std::vector<PredicateRef> keep;
  keep.reserve(kept);
  std::copy_if(cs.begin(), cs.end(), std::back_inserter(keep), qualifies);
  return Predicate::And(std::move(keep));
}

bool RefersBoth(const PredicateRef& pred, PooledAttrs a, PooledAttrs b) {
  bool in_a = false, in_b = false;
  for (const PredicateRef& c : algebra::Conjuncts(pred)) {
    const algebra::AttrSet& refs = c->ReferencedAttrs()->set;
    in_a = in_a || refs.Overlaps(a->set);
    in_b = in_b || refs.Overlaps(b->set);
    if (in_a && in_b) return true;
  }
  return false;
}

bool RefersOnly(const PredicateRef& pred, PooledAttrs attrs,
                PooledAttrs excluded) {
  for (const PredicateRef& c : algebra::Conjuncts(pred)) {
    const algebra::AttrSet& refs = c->ReferencedAttrs()->set;
    if (!refs.SubsetOf(attrs->set) || refs.Overlaps(excluded->set)) {
      return false;
    }
  }
  return true;
}

AttrList SideJoinAttrs(const PredicateRef& pred, PooledAttrs side) {
  AttrList out;
  for (const PredicateRef& c : algebra::Conjuncts(pred)) {
    if (!c->IsEquiJoin()) continue;
    const std::array<algebra::AttrId, 2> ids = EquiJoinIds(*c);
    if (side->set.Contains(ids[0])) {
      out.push_back(c->left().attr);
    } else if (side->set.Contains(ids[1])) {
      out.push_back(c->right().attr);
    }
  }
  return out;
}

bool IsRefJoin(const PredicateRef& pred, PooledAttrs left, PooledAttrs right,
               const catalog::Catalog& cat) {
  for (const PredicateRef& c : algebra::Conjuncts(pred)) {
    if (!c->IsEquiJoin()) continue;
    const std::array<algebra::AttrId, 2> ids = EquiJoinIds(*c);
    const Attr* const sides[2] = {&c->left().attr, &c->right().attr};
    // Side `ref` holds the reference, the other side the oid.
    for (int ref = 0; ref < 2; ++ref) {
      const int oid = 1 - ref;
      if (!left->set.Contains(ids[ref]) || !right->set.Contains(ids[oid])) {
        continue;
      }
      const catalog::StoredFile* f = cat.Find(sides[ref]->cls);
      if (f == nullptr) continue;
      const catalog::AttributeDef* ad = f->FindAttr(sides[ref]->name);
      if (ad == nullptr || !ad->is_reference()) continue;
      if (ad->ref_class == sides[oid]->cls && sides[oid]->name == "oid") {
        return true;
      }
    }
  }
  return false;
}

}  // namespace hand

namespace {

using hand::ConjOver;
using hand::IsRefJoin;
using hand::RefersBoth;
using hand::RefersOnly;
using hand::SideJoinAttrs;

bool IsEquijoinable(const PredicateRef& pred) {
  for (const PredicateRef& c : algebra::Conjuncts(pred)) {
    if (c->IsEquiJoin()) return true;
  }
  return false;
}

const Attr* FindIndexedEq(const PredicateRef& pred,
                          const catalog::Catalog& cat,
                          PredicateRef* eq_conjunct) {
  static thread_local Attr result;
  for (const PredicateRef& c : algebra::Conjuncts(pred)) {
    if (c->kind() != Predicate::Kind::kCmp ||
        c->cmp_op() != algebra::CmpOp::kEq) {
      continue;
    }
    const algebra::Term* attr_term = nullptr;
    if (c->left().is_attr() && !c->right().is_attr()) {
      attr_term = &c->left();
    } else if (c->right().is_attr() && !c->left().is_attr()) {
      attr_term = &c->right();
    } else {
      continue;
    }
    if (cat.HasIndexOn(attr_term->attr)) {
      result = attr_term->attr;
      if (eq_conjunct != nullptr) *eq_conjunct = c;
      return &result;
    }
  }
  return nullptr;
}

const Attr* FirstIndexAttr(const AttrList& attrs,
                           const catalog::Catalog& cat) {
  static thread_local Attr result;
  for (const Attr& a : attrs) {
    if (cat.HasIndexOn(a)) {
      result = a;
      return &result;
    }
  }
  return nullptr;
}

SortSpec SortOn(const AttrList& attrs) {
  SortSpec spec;
  spec.keys.reserve(attrs.size());
  for (const Attr& a : attrs) {
    spec.keys.push_back(SortSpec::Key{a, /*ascending=*/true});
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Rule-building scaffolding
// ---------------------------------------------------------------------------

/// Bound ids of everything the lambdas need.
struct Ctx {
  Props p;
  OpId ret = -1, join = -1, select = -1, project = -1, mat = -1, unnest = -1;
  OpId file_scan = -1, index_scan = -1, btree_scan = -1, filter = -1,
       projection = -1, hash_join = -1, pointer_join = -1, deref = -1,
       flatten = -1, nested_loops = -1, merge_join = -1, merge_sort = -1;
};

PatNodePtr S(int var, int slot) { return PatNode::Stream(var, slot); }
PatNodePtr Op1(OpId op, int slot, PatNodePtr a) {
  std::vector<PatNodePtr> kids;
  kids.push_back(std::move(a));
  return PatNode::Op(op, slot, std::move(kids));
}
PatNodePtr Op2(OpId op, int slot, PatNodePtr a, PatNodePtr b) {
  std::vector<PatNodePtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return PatNode::Op(op, slot, std::move(kids));
}

/// Standard impl-rule slot layout, mirroring core::MakeIRuleSkeleton.
ImplRule Impl(std::string name, OpId op, OpId alg, int arity,
              std::vector<bool> fresh_inputs) {
  ImplRule r;
  r.name = std::move(name);
  r.op = op;
  r.alg = alg;
  r.arity = arity;
  int next = arity + 1;
  r.rhs_input_slots.resize(static_cast<size_t>(arity));
  for (int i = 0; i < arity; ++i) {
    bool fresh = i < static_cast<int>(fresh_inputs.size()) && fresh_inputs[i];
    r.rhs_input_slots[static_cast<size_t>(i)] = fresh ? next++ : i;
  }
  r.alg_slot = next++;
  r.num_slots = next;
  return r;
}

Status NeedCatalog(const BindingView& bv) {
  return bv.catalog == nullptr
             ? Status::RuleError("no catalog bound to the optimizer")
             : Status::OK();
}

// ---------------------------------------------------------------------------
// Shared trans rules (joins) — used by both optimizers
// ---------------------------------------------------------------------------

TransRule JoinCommute(const Ctx& c) {
  TransRule r;
  r.name = "join_commute";
  r.lhs = Op2(c.join, 2, S(1, 0), S(2, 1));
  r.rhs = Op2(c.join, 3, S(2, 1), S(1, 0));
  r.num_slots = 4;
  Props p = c.p;
  r.apply = [p](BindingView& bv) -> Status {
    bv.slot(3) = bv.slot(2);
    return Status::OK();
  };
  return r;
}

TransRule JoinAssoc(const Ctx& c, bool left_to_right) {
  TransRule r;
  Props p = c.p;
  if (left_to_right) {
    r.name = "join_assoc_lr";
    r.lhs = Op2(c.join, 4, Op2(c.join, 3, S(1, 0), S(2, 1)), S(3, 2));
    r.rhs = Op2(c.join, 6, S(1, 0), Op2(c.join, 5, S(2, 1), S(3, 2)));
  } else {
    r.name = "join_assoc_rl";
    r.lhs = Op2(c.join, 4, S(1, 0), Op2(c.join, 3, S(2, 1), S(3, 2)));
    r.rhs = Op2(c.join, 6, Op2(c.join, 5, S(1, 0), S(2, 1)), S(3, 2));
  }
  r.num_slots = 7;
  // Slots: 0,1,2 streams; 3 inner JOIN; 4 outer JOIN; 5 new inner; 6 new
  // outer. The two grouped streams are (1,2) for LR and (0,1) for RL.
  int ga = left_to_right ? 1 : 0;
  int gb = left_to_right ? 2 : 1;
  r.condition = [p, ga, gb](BindingView& bv) -> Result<bool> {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PredicateRef combined =
        algebra::PredAnd(GetPred(bv.slot(3).Get(p.join_predicate)),
                         GetPred(bv.slot(4).Get(p.join_predicate)));
    const Value grouped = algebra::UnionAttrs(bv.slot(ga).Get(p.attributes),
                                              bv.slot(gb).Get(p.attributes));
    PredicateRef inner =
        ConjOver(combined, grouped.AsPooledAttrs(), /*over=*/true);
    bv.slot(5).SetUnchecked(p.join_predicate, Value::Pred(inner));
    return RefersBoth(inner, GetAttrs(bv.slot(ga).Get(p.attributes)),
                      GetAttrs(bv.slot(gb).Get(p.attributes)));
  };
  r.apply = [p, ga, gb](BindingView& bv) -> Status {
    PredicateRef combined =
        algebra::PredAnd(GetPred(bv.slot(3).Get(p.join_predicate)),
                         GetPred(bv.slot(4).Get(p.join_predicate)));
    const Value grouped = algebra::UnionAttrs(bv.slot(ga).Get(p.attributes),
                                              bv.slot(gb).Get(p.attributes));
    PredicateRef inner = GetPred(bv.slot(5).Get(p.join_predicate));
    bv.slot(5).SetUnchecked(p.attributes, grouped);
    double card = GetReal(bv.slot(ga).Get(p.num_records)) *
                  GetReal(bv.slot(gb).Get(p.num_records)) *
                  catalog::EstimateSelectivity(inner, *bv.catalog);
    bv.slot(5).SetUnchecked(p.num_records, Value::Real(card));
    bv.slot(5).SetUnchecked(
        p.tuple_size, Value::Real(GetReal(bv.slot(ga).Get(p.tuple_size)) +
                                  GetReal(bv.slot(gb).Get(p.tuple_size))));
    bv.slot(6).SetUnchecked(
        p.join_predicate,
        Value::Pred(
            ConjOver(combined, grouped.AsPooledAttrs(), /*over=*/false)));
    bv.slot(6).SetUnchecked(p.attributes, bv.slot(4).Get(p.attributes));
    bv.slot(6).SetUnchecked(p.num_records, bv.slot(4).Get(p.num_records));
    bv.slot(6).SetUnchecked(p.tuple_size, bv.slot(4).Get(p.tuple_size));
    return Status::OK();
  };
  return r;
}

// ---------------------------------------------------------------------------
// Shared impl rules / enforcer
// ---------------------------------------------------------------------------

ImplRule FileScan(const Ctx& c) {
  ImplRule r = Impl("file_scan", c.ret, c.file_scan, 1, {false});
  Props p = c.p;
  r.pre_opt = [p](BindingView& bv) -> Status {
    bv.slot(2) = bv.slot(1);
    bv.slot(2).SetUnchecked(p.tuple_order, Value::Sort(SortSpec::DontCare()));
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    bv.slot(2).SetUnchecked(
        p.cost, Value::Real(GetReal(bv.slot(0).Get(p.num_records))));
    return Status::OK();
  };
  return r;
}

ImplRule IndexScanEq(const Ctx& c, OpId alg, const char* name) {
  ImplRule r = Impl(name, c.ret, alg, 1, {false});
  Props p = c.p;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    return FindIndexedEq(GetPred(bv.slot(1).Get(p.selection_predicate)),
                         *bv.catalog, nullptr) != nullptr;
  };
  r.pre_opt = [p](BindingView& bv) -> Status {
    bv.slot(2) = bv.slot(1);
    const Attr* a = FindIndexedEq(
        GetPred(bv.slot(1).Get(p.selection_predicate)), *bv.catalog, nullptr);
    AttrList one;
    if (a != nullptr) one.push_back(*a);
    bv.slot(2).SetUnchecked(p.index_attr, Value::Attrs(std::move(one)));
    bv.slot(2).SetUnchecked(p.tuple_order, Value::Sort(SortSpec::DontCare()));
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    PredicateRef eq;
    const Attr* a = FindIndexedEq(
        GetPred(bv.slot(1).Get(p.selection_predicate)), *bv.catalog, &eq);
    if (a == nullptr) {
      return Status::RuleError("index scan lost its indexed conjunct");
    }
    double card = GetReal(bv.slot(0).Get(p.num_records));
    double sel = catalog::EstimateSelectivity(eq, *bv.catalog);
    bv.slot(2).SetUnchecked(p.cost,
                            Value::Real(std::max(1.0, card * sel)));
    return Status::OK();
  };
  return r;
}

ImplRule IndexScanOrder(const Ctx& c, OpId alg, const char* name) {
  ImplRule r = Impl(name, c.ret, alg, 1, {false});
  Props p = c.p;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    return FirstIndexAttr(GetAttrs(bv.slot(0).Get(p.attributes))->attrs,
                          *bv.catalog) != nullptr;
  };
  r.pre_opt = [p](BindingView& bv) -> Status {
    bv.slot(2) = bv.slot(1);
    const Attr* a = FirstIndexAttr(
        GetAttrs(bv.slot(0).Get(p.attributes))->attrs, *bv.catalog);
    AttrList one;
    if (a != nullptr) one.push_back(*a);
    bv.slot(2).SetUnchecked(p.index_attr, Value::Attrs(one));
    bv.slot(2).SetUnchecked(p.tuple_order, Value::Sort(SortOn(one)));
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    bv.slot(2).SetUnchecked(
        p.cost, Value::Real(GetReal(bv.slot(0).Get(p.num_records)) +
                            GetReal(bv.slot(1).Get(p.num_records))));
    return Status::OK();
  };
  return r;
}

Enforcer MergeSortEnforcer(const Ctx& c) {
  Enforcer e;
  e.name = "merge_sort";
  e.alg = c.merge_sort;
  e.prop = c.p.tuple_order;
  Props p = c.p;
  e.pre_opt = [](BindingView& bv) -> Status {
    bv.slot(Enforcer::kAlgSlot) = bv.slot(Enforcer::kOpSlot);
    return Status::OK();
  };
  e.post_opt = [p](BindingView& bv) -> Status {
    double n = GetReal(bv.slot(Enforcer::kAlgSlot).Get(p.num_records));
    double nlogn = n <= 1.0 ? 0.0 : n * std::log(n);
    bv.slot(Enforcer::kAlgSlot)
        .SetUnchecked(p.cost,
                      Value::Real(GetReal(bv.slot(Enforcer::kInputSlot)
                                              .Get(p.cost)) +
                                  nlogn));
    return Status::OK();
  };
  return e;
}

// ---------------------------------------------------------------------------
// Relational-only rules
// ---------------------------------------------------------------------------

ImplRule NestedLoops(const Ctx& c) {
  // Slots: 0=D1, 1=D2, 2=D3(op), 3=D4(fresh outer), 4=D5(alg).
  ImplRule r = Impl("nested_loops", c.join, c.nested_loops, 2, {true, false});
  Props p = c.p;
  r.pre_opt = [p](BindingView& bv) -> Status {
    bv.slot(4) = bv.slot(2);
    bv.slot(3) = bv.slot(0);
    bv.slot(3).SetUnchecked(p.tuple_order, bv.slot(2).Get(p.tuple_order));
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    bv.slot(4).SetUnchecked(
        p.cost, Value::Real(GetReal(bv.slot(3).Get(p.cost)) +
                            GetReal(bv.slot(3).Get(p.num_records)) *
                                GetReal(bv.slot(1).Get(p.cost))));
    return Status::OK();
  };
  return r;
}

ImplRule MergeJoin(const Ctx& c) {
  // Slots: 0=D1, 1=D2, 2=D3(op), 3=D4(fresh outer), 4=D5(fresh inner),
  // 5=D6(alg).
  ImplRule r = Impl("merge_join", c.join, c.merge_join, 2, {true, true});
  Props p = c.p;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return IsEquijoinable(GetPred(bv.slot(2).Get(p.join_predicate)));
  };
  r.pre_opt = [p](BindingView& bv) -> Status {
    PredicateRef pred = GetPred(bv.slot(2).Get(p.join_predicate));
    bv.slot(5) = bv.slot(2);
    bv.slot(3) = bv.slot(0);
    bv.slot(4) = bv.slot(1);
    SortSpec lorder =
        SortOn(SideJoinAttrs(pred, GetAttrs(bv.slot(0).Get(p.attributes))));
    SortSpec rorder =
        SortOn(SideJoinAttrs(pred, GetAttrs(bv.slot(1).Get(p.attributes))));
    bv.slot(3).SetUnchecked(p.tuple_order, Value::Sort(lorder));
    bv.slot(4).SetUnchecked(p.tuple_order, Value::Sort(rorder));
    bv.slot(5).SetUnchecked(p.tuple_order, Value::Sort(lorder));
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    bv.slot(5).SetUnchecked(
        p.cost, Value::Real(GetReal(bv.slot(3).Get(p.cost)) +
                            GetReal(bv.slot(4).Get(p.cost)) +
                            GetReal(bv.slot(3).Get(p.num_records)) +
                            GetReal(bv.slot(4).Get(p.num_records))));
    return Status::OK();
  };
  return r;
}

// ---------------------------------------------------------------------------
// OODB-only rules
// ---------------------------------------------------------------------------

/// Factors the common shape of SELECT push/pull style rules.
TransRule SelectPushJoin(const Ctx& c, bool left) {
  TransRule r;
  Props p = c.p;
  // Slots: 0=?1, 1=?2, 2=JOIN(D3), 3=SELECT(D4), 4=new SELECT(D5),
  // 5=new JOIN(D6).
  int side = left ? 0 : 1;
  r.name = left ? "select_push_join_left" : "select_push_join_right";
  r.lhs = Op1(c.select, 3, Op2(c.join, 2, S(1, 0), S(2, 1)));
  r.rhs = left ? Op2(c.join, 5, Op1(c.select, 4, S(1, 0)), S(2, 1))
               : Op2(c.join, 5, S(1, 0), Op1(c.select, 4, S(2, 1)));
  r.num_slots = 6;
  r.condition = [p, side](BindingView& bv) -> Result<bool> {
    return RefersOnly(GetPred(bv.slot(3).Get(p.selection_predicate)),
                      GetAttrs(bv.slot(side).Get(p.attributes)));
  };
  r.apply = [p, side](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PredicateRef sel = GetPred(bv.slot(3).Get(p.selection_predicate));
    bv.slot(4).SetUnchecked(p.selection_predicate, Value::Pred(sel));
    bv.slot(4).SetUnchecked(p.attributes, bv.slot(side).Get(p.attributes));
    bv.slot(4).SetUnchecked(
        p.num_records,
        Value::Real(GetReal(bv.slot(side).Get(p.num_records)) *
                    catalog::EstimateSelectivity(sel, *bv.catalog)));
    bv.slot(4).SetUnchecked(p.tuple_size, bv.slot(side).Get(p.tuple_size));
    bv.slot(5) = bv.slot(2);
    bv.slot(5).SetUnchecked(p.num_records, bv.slot(3).Get(p.num_records));
    return Status::OK();
  };
  return r;
}

TransRule SelectPullJoin(const Ctx& c, bool left) {
  TransRule r;
  Props p = c.p;
  // Slots: 0=?1, 1=?2, 2=SELECT(D3), 3=JOIN(D4), 4=new JOIN(D5),
  // 5=new SELECT(D6).
  r.name = left ? "select_pull_join_left" : "select_pull_join_right";
  r.lhs = left ? Op2(c.join, 3, Op1(c.select, 2, S(1, 0)), S(2, 1))
               : Op2(c.join, 3, S(1, 0), Op1(c.select, 2, S(2, 1)));
  r.rhs = Op1(c.select, 5, Op2(c.join, 4, S(1, 0), S(2, 1)));
  r.num_slots = 6;
  r.apply = [p](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PredicateRef jp = GetPred(bv.slot(3).Get(p.join_predicate));
    const Value attrs = algebra::UnionAttrs(bv.slot(0).Get(p.attributes),
                                            bv.slot(1).Get(p.attributes));
    bv.slot(4).SetUnchecked(p.join_predicate, Value::Pred(jp));
    bv.slot(4).SetUnchecked(p.attributes, attrs);
    bv.slot(4).SetUnchecked(
        p.num_records,
        Value::Real(GetReal(bv.slot(0).Get(p.num_records)) *
                    GetReal(bv.slot(1).Get(p.num_records)) *
                    catalog::EstimateSelectivity(jp, *bv.catalog)));
    double tsize = GetReal(bv.slot(0).Get(p.tuple_size)) +
                   GetReal(bv.slot(1).Get(p.tuple_size));
    bv.slot(4).SetUnchecked(p.tuple_size, Value::Real(tsize));
    bv.slot(5).SetUnchecked(p.selection_predicate,
                            bv.slot(2).Get(p.selection_predicate));
    bv.slot(5).SetUnchecked(p.attributes, attrs);
    bv.slot(5).SetUnchecked(p.num_records, bv.slot(3).Get(p.num_records));
    bv.slot(5).SetUnchecked(p.tuple_size, Value::Real(tsize));
    return Status::OK();
  };
  return r;
}

TransRule SelectSplit(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "select_split";
  r.lhs = Op1(c.select, 1, S(1, 0));
  r.rhs = Op1(c.select, 3, Op1(c.select, 2, S(1, 0)));
  r.num_slots = 4;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return algebra::Conjuncts(GetPred(bv.slot(1).Get(p.selection_predicate)))
               .size() >= 2;
  };
  r.apply = [p](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    const std::span<const PredicateRef> cs =
        algebra::Conjuncts(GetPred(bv.slot(1).Get(p.selection_predicate)));
    PredicateRef first = cs[0];
    PredicateRef rest =
        Predicate::And(std::vector<PredicateRef>(cs.begin() + 1, cs.end()));
    bv.slot(2).SetUnchecked(p.selection_predicate, Value::Pred(first));
    bv.slot(2).SetUnchecked(p.attributes, bv.slot(0).Get(p.attributes));
    bv.slot(2).SetUnchecked(
        p.num_records,
        Value::Real(GetReal(bv.slot(0).Get(p.num_records)) *
                    catalog::EstimateSelectivity(first, *bv.catalog)));
    bv.slot(2).SetUnchecked(p.tuple_size, bv.slot(0).Get(p.tuple_size));
    bv.slot(3).SetUnchecked(p.selection_predicate, Value::Pred(rest));
    bv.slot(3).SetUnchecked(p.attributes, bv.slot(1).Get(p.attributes));
    bv.slot(3).SetUnchecked(p.num_records, bv.slot(1).Get(p.num_records));
    bv.slot(3).SetUnchecked(p.tuple_size, bv.slot(1).Get(p.tuple_size));
    return Status::OK();
  };
  return r;
}

TransRule SelectMerge(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "select_merge";
  r.lhs = Op1(c.select, 2, Op1(c.select, 1, S(1, 0)));
  r.rhs = Op1(c.select, 3, S(1, 0));
  r.num_slots = 4;
  r.apply = [p](BindingView& bv) -> Status {
    bv.slot(3) = bv.slot(2);
    bv.slot(3).SetUnchecked(
        p.selection_predicate,
        Value::Pred(algebra::PredAnd(
            GetPred(bv.slot(1).Get(p.selection_predicate)),
            GetPred(bv.slot(2).Get(p.selection_predicate)))));
    return Status::OK();
  };
  return r;
}

TransRule SelectIntoRet(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "select_into_ret";
  r.lhs = Op1(c.select, 2, Op1(c.ret, 1, S(1, 0)));
  r.rhs = Op1(c.ret, 3, S(1, 0));
  r.num_slots = 4;
  r.apply = [p](BindingView& bv) -> Status {
    bv.slot(3) = bv.slot(1);
    bv.slot(3).SetUnchecked(
        p.selection_predicate,
        Value::Pred(algebra::PredAnd(
            GetPred(bv.slot(1).Get(p.selection_predicate)),
            GetPred(bv.slot(2).Get(p.selection_predicate)))));
    bv.slot(3).SetUnchecked(p.num_records, bv.slot(2).Get(p.num_records));
    return Status::OK();
  };
  return r;
}

TransRule SelectPushMat(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "select_push_mat";
  r.lhs = Op1(c.select, 2, Op1(c.mat, 1, S(1, 0)));
  r.rhs = Op1(c.mat, 4, Op1(c.select, 3, S(1, 0)));
  r.num_slots = 5;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return RefersOnly(GetPred(bv.slot(2).Get(p.selection_predicate)),
                      GetAttrs(bv.slot(0).Get(p.attributes)));
  };
  r.apply = [p](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PredicateRef sel = GetPred(bv.slot(2).Get(p.selection_predicate));
    bv.slot(3).SetUnchecked(p.selection_predicate, Value::Pred(sel));
    bv.slot(3).SetUnchecked(p.attributes, bv.slot(0).Get(p.attributes));
    bv.slot(3).SetUnchecked(
        p.num_records,
        Value::Real(GetReal(bv.slot(0).Get(p.num_records)) *
                    catalog::EstimateSelectivity(sel, *bv.catalog)));
    bv.slot(3).SetUnchecked(p.tuple_size, bv.slot(0).Get(p.tuple_size));
    bv.slot(4) = bv.slot(1);
    bv.slot(4).SetUnchecked(p.num_records, bv.slot(2).Get(p.num_records));
    return Status::OK();
  };
  return r;
}

Result<const catalog::StoredFile*> ClassOf(const BindingView& bv,
                                           const Value& name) {
  if (name.is_null() || name.type() != ValueType::kString) {
    return Status::RuleError("mat_class annotation missing");
  }
  return bv.catalog->Require(name.AsString());
}

TransRule SelectPullMat(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "select_pull_mat";
  r.lhs = Op1(c.mat, 2, Op1(c.select, 1, S(1, 0)));
  r.rhs = Op1(c.select, 4, Op1(c.mat, 3, S(1, 0)));
  r.num_slots = 5;
  r.apply = [p](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* cls,
                             ClassOf(bv, bv.slot(2).Get(p.mat_class)));
    bv.slot(3).SetUnchecked(p.mat_attr, bv.slot(2).Get(p.mat_attr));
    bv.slot(3).SetUnchecked(p.mat_class, bv.slot(2).Get(p.mat_class));
    const Value attrs =
        algebra::UnionAttrs(bv.slot(0).Get(p.attributes),
                            Value::FromPool(cls->PooledQualifiedAttrs()));
    bv.slot(3).SetUnchecked(p.attributes, attrs);
    bv.slot(3).SetUnchecked(p.num_records, bv.slot(0).Get(p.num_records));
    bv.slot(3).SetUnchecked(
        p.tuple_size,
        Value::Real(GetReal(bv.slot(0).Get(p.tuple_size)) +
                    static_cast<double>(cls->tuple_size())));
    bv.slot(4).SetUnchecked(p.selection_predicate,
                            bv.slot(1).Get(p.selection_predicate));
    bv.slot(4).SetUnchecked(p.attributes, attrs);
    bv.slot(4).SetUnchecked(p.num_records, bv.slot(2).Get(p.num_records));
    bv.slot(4).SetUnchecked(p.tuple_size, bv.slot(3).Get(p.tuple_size));
    return Status::OK();
  };
  return r;
}

TransRule SelectPushUnnest(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "select_push_unnest";
  r.lhs = Op1(c.select, 2, Op1(c.unnest, 1, S(1, 0)));
  r.rhs = Op1(c.unnest, 4, Op1(c.select, 3, S(1, 0)));
  r.num_slots = 5;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return RefersOnly(GetPred(bv.slot(2).Get(p.selection_predicate)),
                      GetAttrs(bv.slot(0).Get(p.attributes)),
                      GetAttrs(bv.slot(1).Get(p.unnest_attr)));
  };
  r.apply = [p](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PredicateRef sel = GetPred(bv.slot(2).Get(p.selection_predicate));
    bv.slot(3).SetUnchecked(p.selection_predicate, Value::Pred(sel));
    bv.slot(3).SetUnchecked(p.attributes, bv.slot(0).Get(p.attributes));
    bv.slot(3).SetUnchecked(
        p.num_records,
        Value::Real(GetReal(bv.slot(0).Get(p.num_records)) *
                    catalog::EstimateSelectivity(sel, *bv.catalog)));
    bv.slot(3).SetUnchecked(p.tuple_size, bv.slot(0).Get(p.tuple_size));
    bv.slot(4) = bv.slot(1);
    bv.slot(4).SetUnchecked(p.num_records, bv.slot(2).Get(p.num_records));
    return Status::OK();
  };
  return r;
}

TransRule SelectPullUnnest(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "select_pull_unnest";
  r.lhs = Op1(c.unnest, 2, Op1(c.select, 1, S(1, 0)));
  r.rhs = Op1(c.select, 4, Op1(c.unnest, 3, S(1, 0)));
  r.num_slots = 5;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return RefersOnly(GetPred(bv.slot(1).Get(p.selection_predicate)),
                      GetAttrs(bv.slot(0).Get(p.attributes)),
                      GetAttrs(bv.slot(2).Get(p.unnest_attr)));
  };
  r.apply = [p](BindingView& bv) -> Status {
    bv.slot(3).SetUnchecked(p.unnest_attr, bv.slot(2).Get(p.unnest_attr));
    bv.slot(3).SetUnchecked(p.unnest_mult, bv.slot(2).Get(p.unnest_mult));
    bv.slot(3).SetUnchecked(p.attributes, bv.slot(0).Get(p.attributes));
    bv.slot(3).SetUnchecked(
        p.num_records,
        Value::Real(GetReal(bv.slot(0).Get(p.num_records)) *
                    GetReal(bv.slot(2).Get(p.unnest_mult), 1.0)));
    bv.slot(3).SetUnchecked(p.tuple_size, bv.slot(0).Get(p.tuple_size));
    bv.slot(4).SetUnchecked(p.selection_predicate,
                            bv.slot(1).Get(p.selection_predicate));
    bv.slot(4).SetUnchecked(p.attributes, bv.slot(3).Get(p.attributes));
    bv.slot(4).SetUnchecked(p.num_records, bv.slot(2).Get(p.num_records));
    bv.slot(4).SetUnchecked(p.tuple_size, bv.slot(3).Get(p.tuple_size));
    return Status::OK();
  };
  return r;
}

TransRule MatPushJoinLeft(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "mat_push_join_left";
  r.lhs = Op1(c.mat, 3, Op2(c.join, 2, S(1, 0), S(2, 1)));
  r.rhs = Op2(c.join, 5, Op1(c.mat, 4, S(1, 0)), S(2, 1));
  r.num_slots = 6;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return GetAttrs(bv.slot(3).Get(p.mat_attr))
        ->set.SubsetOf(GetAttrs(bv.slot(0).Get(p.attributes))->set);
  };
  r.apply = [p](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* cls,
                             ClassOf(bv, bv.slot(3).Get(p.mat_class)));
    bv.slot(4).SetUnchecked(p.mat_attr, bv.slot(3).Get(p.mat_attr));
    bv.slot(4).SetUnchecked(p.mat_class, bv.slot(3).Get(p.mat_class));
    bv.slot(4).SetUnchecked(
        p.attributes,
        algebra::UnionAttrs(bv.slot(0).Get(p.attributes),
                            Value::FromPool(cls->PooledQualifiedAttrs())));
    bv.slot(4).SetUnchecked(p.num_records, bv.slot(0).Get(p.num_records));
    bv.slot(4).SetUnchecked(
        p.tuple_size,
        Value::Real(GetReal(bv.slot(0).Get(p.tuple_size)) +
                    static_cast<double>(cls->tuple_size())));
    bv.slot(5) = bv.slot(2);
    bv.slot(5).SetUnchecked(p.attributes, bv.slot(3).Get(p.attributes));
    bv.slot(5).SetUnchecked(p.tuple_size, bv.slot(3).Get(p.tuple_size));
    return Status::OK();
  };
  return r;
}

TransRule MatPullJoinLeft(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "mat_pull_join_left";
  r.lhs = Op2(c.join, 3, Op1(c.mat, 2, S(1, 0)), S(2, 1));
  r.rhs = Op1(c.mat, 5, Op2(c.join, 4, S(1, 0), S(2, 1)));
  r.num_slots = 6;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return RefersOnly(GetPred(bv.slot(3).Get(p.join_predicate)),
                      algebra::UnionAttrs(bv.slot(0).Get(p.attributes),
                                          bv.slot(1).Get(p.attributes))
                          .AsPooledAttrs());
  };
  r.apply = [p](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* cls,
                             ClassOf(bv, bv.slot(2).Get(p.mat_class)));
    PredicateRef jp = GetPred(bv.slot(3).Get(p.join_predicate));
    const Value attrs = algebra::UnionAttrs(bv.slot(0).Get(p.attributes),
                                            bv.slot(1).Get(p.attributes));
    bv.slot(4).SetUnchecked(p.join_predicate, Value::Pred(jp));
    bv.slot(4).SetUnchecked(p.attributes, attrs);
    double card = GetReal(bv.slot(0).Get(p.num_records)) *
                  GetReal(bv.slot(1).Get(p.num_records)) *
                  catalog::EstimateSelectivity(jp, *bv.catalog);
    bv.slot(4).SetUnchecked(p.num_records, Value::Real(card));
    double tsize = GetReal(bv.slot(0).Get(p.tuple_size)) +
                   GetReal(bv.slot(1).Get(p.tuple_size));
    bv.slot(4).SetUnchecked(p.tuple_size, Value::Real(tsize));
    bv.slot(5).SetUnchecked(p.mat_attr, bv.slot(2).Get(p.mat_attr));
    bv.slot(5).SetUnchecked(p.mat_class, bv.slot(2).Get(p.mat_class));
    bv.slot(5).SetUnchecked(
        p.attributes,
        algebra::UnionAttrs(attrs,
                            Value::FromPool(cls->PooledQualifiedAttrs())));
    bv.slot(5).SetUnchecked(p.num_records, Value::Real(card));
    bv.slot(5).SetUnchecked(
        p.tuple_size,
        Value::Real(tsize + static_cast<double>(cls->tuple_size())));
    return Status::OK();
  };
  return r;
}

TransRule MatMatSwap(const Ctx& c) {
  TransRule r;
  Props p = c.p;
  r.name = "mat_mat_swap";
  r.lhs = Op1(c.mat, 2, Op1(c.mat, 1, S(1, 0)));
  r.rhs = Op1(c.mat, 4, Op1(c.mat, 3, S(1, 0)));
  r.num_slots = 5;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return GetAttrs(bv.slot(2).Get(p.mat_attr))
        ->set.SubsetOf(GetAttrs(bv.slot(0).Get(p.attributes))->set);
  };
  r.apply = [p](BindingView& bv) -> Status {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* outer_cls,
                             ClassOf(bv, bv.slot(2).Get(p.mat_class)));
    bv.slot(3).SetUnchecked(p.mat_attr, bv.slot(2).Get(p.mat_attr));
    bv.slot(3).SetUnchecked(p.mat_class, bv.slot(2).Get(p.mat_class));
    bv.slot(3).SetUnchecked(
        p.attributes,
        algebra::UnionAttrs(
            bv.slot(0).Get(p.attributes),
            Value::FromPool(outer_cls->PooledQualifiedAttrs())));
    bv.slot(3).SetUnchecked(p.num_records, bv.slot(0).Get(p.num_records));
    bv.slot(3).SetUnchecked(
        p.tuple_size,
        Value::Real(GetReal(bv.slot(0).Get(p.tuple_size)) +
                    static_cast<double>(outer_cls->tuple_size())));
    bv.slot(4).SetUnchecked(p.mat_attr, bv.slot(1).Get(p.mat_attr));
    bv.slot(4).SetUnchecked(p.mat_class, bv.slot(1).Get(p.mat_class));
    bv.slot(4).SetUnchecked(p.attributes, bv.slot(2).Get(p.attributes));
    bv.slot(4).SetUnchecked(p.num_records, bv.slot(2).Get(p.num_records));
    bv.slot(4).SetUnchecked(p.tuple_size, bv.slot(2).Get(p.tuple_size));
    return Status::OK();
  };
  return r;
}

/// Unary pass-through implementations that preserve order and charge one
/// touch per tuple (Filter / Projection / Deref).
ImplRule UnaryPassThrough(const Ctx& c, const char* name, OpId op, OpId alg) {
  // Slots: 0=D1, 1=D2(op), 2=D3(fresh input), 3=D4(alg).
  ImplRule r = Impl(name, op, alg, 1, {true});
  Props p = c.p;
  r.pre_opt = [p](BindingView& bv) -> Status {
    bv.slot(3) = bv.slot(1);
    bv.slot(2) = bv.slot(0);
    bv.slot(2).SetUnchecked(p.tuple_order, bv.slot(1).Get(p.tuple_order));
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    bv.slot(3).SetUnchecked(
        p.cost, Value::Real(GetReal(bv.slot(2).Get(p.cost)) +
                            GetReal(bv.slot(2).Get(p.num_records))));
    return Status::OK();
  };
  return r;
}

ImplRule HashJoin(const Ctx& c) {
  ImplRule r = Impl("hash_join", c.join, c.hash_join, 2, {false, false});
  Props p = c.p;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    return IsEquijoinable(GetPred(bv.slot(2).Get(p.join_predicate)));
  };
  r.pre_opt = [p](BindingView& bv) -> Status {
    bv.slot(3) = bv.slot(2);
    bv.slot(3).SetUnchecked(p.tuple_order, Value::Sort(SortSpec::DontCare()));
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    bv.slot(3).SetUnchecked(
        p.cost, Value::Real(GetReal(bv.slot(0).Get(p.cost)) +
                            GetReal(bv.slot(1).Get(p.cost)) +
                            GetReal(bv.slot(0).Get(p.num_records)) +
                            GetReal(bv.slot(1).Get(p.num_records))));
    return Status::OK();
  };
  return r;
}

ImplRule PointerJoin(const Ctx& c) {
  ImplRule r = Impl("pointer_join", c.join, c.pointer_join, 2, {false, false});
  Props p = c.p;
  r.condition = [p](BindingView& bv) -> Result<bool> {
    PRAIRIE_RETURN_NOT_OK(NeedCatalog(bv));
    return IsRefJoin(GetPred(bv.slot(2).Get(p.join_predicate)),
                     GetAttrs(bv.slot(0).Get(p.attributes)),
                     GetAttrs(bv.slot(1).Get(p.attributes)), *bv.catalog);
  };
  r.pre_opt = [p](BindingView& bv) -> Status {
    bv.slot(3) = bv.slot(2);
    bv.slot(3).SetUnchecked(p.tuple_order, Value::Sort(SortSpec::DontCare()));
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    bv.slot(3).SetUnchecked(
        p.cost, Value::Real(GetReal(bv.slot(0).Get(p.cost)) +
                            GetReal(bv.slot(1).Get(p.cost)) +
                            GetReal(bv.slot(0).Get(p.num_records))));
    return Status::OK();
  };
  return r;
}

ImplRule FlattenRule(const Ctx& c) {
  // Slots: 0=D1, 1=D2(op), 2=D3(fresh input), 3=D4(alg).
  ImplRule r = Impl("flatten", c.unnest, c.flatten, 1, {true});
  Props p = c.p;
  r.pre_opt = [p](BindingView& bv) -> Status {
    bv.slot(3) = bv.slot(1);
    bv.slot(3).SetUnchecked(p.tuple_order, Value::Sort(SortSpec::DontCare()));
    bv.slot(2) = bv.slot(0);
    return Status::OK();
  };
  r.post_opt = [p](BindingView& bv) -> Status {
    bv.slot(3).SetUnchecked(
        p.cost, Value::Real(GetReal(bv.slot(2).Get(p.cost)) +
                            GetReal(bv.slot(3).Get(p.num_records))));
    return Status::OK();
  };
  return r;
}

Result<Ctx> MakeCtx(Algebra* algebra, bool oodb) {
  Ctx c;
  PRAIRIE_RETURN_NOT_OK(AddStandardProperties(algebra->mutable_properties()));
  PRAIRIE_ASSIGN_OR_RETURN(c.p, Props::FromSchema(algebra->properties()));
  PRAIRIE_ASSIGN_OR_RETURN(c.ret, algebra->RegisterOperator("RET", 1));
  PRAIRIE_ASSIGN_OR_RETURN(c.join, algebra->RegisterOperator("JOIN", 2));
  if (oodb) {
    PRAIRIE_ASSIGN_OR_RETURN(c.select, algebra->RegisterOperator("SELECT", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.project,
                             algebra->RegisterOperator("PROJECT", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.mat, algebra->RegisterOperator("MAT", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.unnest, algebra->RegisterOperator("UNNEST", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.file_scan,
                             algebra->RegisterAlgorithm("File_scan", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.index_scan,
                             algebra->RegisterAlgorithm("Index_scan", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.filter,
                             algebra->RegisterAlgorithm("Filter", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.projection,
                             algebra->RegisterAlgorithm("Projection", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.hash_join,
                             algebra->RegisterAlgorithm("Hash_join", 2));
    PRAIRIE_ASSIGN_OR_RETURN(c.pointer_join,
                             algebra->RegisterAlgorithm("Pointer_join", 2));
    PRAIRIE_ASSIGN_OR_RETURN(c.deref, algebra->RegisterAlgorithm("Deref", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.flatten,
                             algebra->RegisterAlgorithm("Flatten", 1));
  } else {
    PRAIRIE_ASSIGN_OR_RETURN(c.file_scan,
                             algebra->RegisterAlgorithm("File_scan", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.index_scan,
                             algebra->RegisterAlgorithm("Index_scan", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.btree_scan,
                             algebra->RegisterAlgorithm("Btree_scan", 1));
    PRAIRIE_ASSIGN_OR_RETURN(c.nested_loops,
                             algebra->RegisterAlgorithm("Nested_loops", 2));
    PRAIRIE_ASSIGN_OR_RETURN(c.merge_join,
                             algebra->RegisterAlgorithm("Merge_join", 2));
  }
  PRAIRIE_ASSIGN_OR_RETURN(c.merge_sort,
                           algebra->RegisterAlgorithm("Merge_sort", 1));
  return c;
}

}  // namespace

Result<std::shared_ptr<RuleSet>> BuildRelationalVolcano() {
  auto rules = std::make_shared<RuleSet>();
  rules->name = "relational-hand-coded";
  rules->algebra = std::make_shared<Algebra>();
  PRAIRIE_ASSIGN_OR_RETURN(Ctx c, MakeCtx(rules->algebra.get(),
                                          /*oodb=*/false));
  rules->cost_prop = c.p.cost;
  rules->phys_props = {c.p.tuple_order};
  rules->logical_props = {c.p.num_records, c.p.tuple_size, c.p.unnest_mult};

  rules->trans_rules.push_back(JoinCommute(c));
  rules->trans_rules.push_back(JoinAssoc(c, /*left_to_right=*/true));
  rules->trans_rules.push_back(JoinAssoc(c, /*left_to_right=*/false));

  rules->impl_rules.push_back(FileScan(c));
  rules->impl_rules.push_back(IndexScanEq(c, c.index_scan, "index_scan"));
  rules->impl_rules.push_back(IndexScanOrder(c, c.btree_scan, "btree_scan"));
  rules->impl_rules.push_back(NestedLoops(c));
  rules->impl_rules.push_back(MergeJoin(c));

  rules->enforcers.push_back(MergeSortEnforcer(c));
  PRAIRIE_RETURN_NOT_OK(rules->Finalize());
  return rules;
}

Result<std::shared_ptr<RuleSet>> BuildOodbVolcano() {
  auto rules = std::make_shared<RuleSet>();
  rules->name = "oodb-hand-coded";
  rules->algebra = std::make_shared<Algebra>();
  PRAIRIE_ASSIGN_OR_RETURN(Ctx c, MakeCtx(rules->algebra.get(),
                                          /*oodb=*/true));
  rules->cost_prop = c.p.cost;
  rules->phys_props = {c.p.tuple_order};
  rules->logical_props = {c.p.num_records, c.p.tuple_size, c.p.unnest_mult};

  rules->trans_rules.push_back(JoinCommute(c));
  rules->trans_rules.push_back(JoinAssoc(c, /*left_to_right=*/true));
  rules->trans_rules.push_back(JoinAssoc(c, /*left_to_right=*/false));
  rules->trans_rules.push_back(SelectPushJoin(c, /*left=*/true));
  rules->trans_rules.push_back(SelectPullJoin(c, /*left=*/true));
  rules->trans_rules.push_back(SelectPushJoin(c, /*left=*/false));
  rules->trans_rules.push_back(SelectPullJoin(c, /*left=*/false));
  rules->trans_rules.push_back(SelectSplit(c));
  rules->trans_rules.push_back(SelectMerge(c));
  rules->trans_rules.push_back(SelectIntoRet(c));
  rules->trans_rules.push_back(SelectPushMat(c));
  rules->trans_rules.push_back(SelectPullMat(c));
  rules->trans_rules.push_back(SelectPushUnnest(c));
  rules->trans_rules.push_back(SelectPullUnnest(c));
  rules->trans_rules.push_back(MatPushJoinLeft(c));
  rules->trans_rules.push_back(MatPullJoinLeft(c));
  rules->trans_rules.push_back(MatMatSwap(c));

  rules->impl_rules.push_back(FileScan(c));
  rules->impl_rules.push_back(IndexScanEq(c, c.index_scan, "index_scan_eq"));
  rules->impl_rules.push_back(
      IndexScanOrder(c, c.index_scan, "index_scan_order"));
  rules->impl_rules.push_back(UnaryPassThrough(c, "filter", c.select,
                                               c.filter));
  rules->impl_rules.push_back(UnaryPassThrough(c, "projection", c.project,
                                               c.projection));
  rules->impl_rules.push_back(HashJoin(c));
  rules->impl_rules.push_back(PointerJoin(c));
  rules->impl_rules.push_back(UnaryPassThrough(c, "deref", c.mat, c.deref));
  rules->impl_rules.push_back(FlattenRule(c));

  rules->enforcers.push_back(MergeSortEnforcer(c));
  PRAIRIE_RETURN_NOT_OK(rules->Finalize());
  return rules;
}

}  // namespace prairie::opt
