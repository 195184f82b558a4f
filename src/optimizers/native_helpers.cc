#include "optimizers/native_helpers.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <span>

namespace prairie::opt::native {

using algebra::Attr;
using algebra::AttrList;
using algebra::PooledAttrs;
using algebra::Predicate;
using algebra::PredicateRef;
using algebra::SortSpec;
using algebra::ValueType;
using common::Status;

namespace {

// The accessors below borrow: they return pointers into the argument
// Values (or to shared constants), which outlive the helper call.

/// The predicate `v` holds; null reads as TRUE.
Result<const PredicateRef*> AsPred(const Value& v, const char* fn) {
  if (v.is_null()) return &Predicate::True();
  if (v.type() != ValueType::kPred) {
    return Status::TypeError(std::string(fn) + ": expected a predicate, got " +
                             std::string(ValueTypeName(v.type())));
  }
  const PredicateRef& p = v.AsPred();
  return p == nullptr ? &Predicate::True() : &p;
}

/// The pooled attribute list `v` holds; null reads as the pooled empty
/// list.
Result<PooledAttrs> AsAttrs(const Value& v, const char* fn) {
  if (v.is_null()) return algebra::EmptyAttrs();
  if (v.type() != ValueType::kAttrs) {
    return Status::TypeError(std::string(fn) +
                             ": expected an attribute list, got " +
                             std::string(ValueTypeName(v.type())));
  }
  return v.AsPooledAttrs();
}

Result<double> AsReal(const Value& v, const char* fn) {
  auto r = v.ToReal();
  if (!r.ok()) return r.status().WithContext(fn);
  return r;
}

/// The pooled string `v` holds.
Result<const std::string*> AsStr(const Value& v, const char* fn) {
  if (v.is_null() || v.type() != ValueType::kString) {
    return Status::TypeError(std::string(fn) + ": expected a string");
  }
  return &v.AsString();
}

Result<const catalog::Catalog*> NeedCat(const catalog::Catalog* cat,
                                        const char* fn) {
  if (cat == nullptr) {
    return Status::RuleError(std::string(fn) + ": no catalog available");
  }
  return cat;
}

/// The conjunction of the conjuncts of `pred` that refer only to `attrs`
/// (over) or not (!over). When every conjunct qualifies the result is
/// `pred` itself: Predicate::And would rebuild an equal tree.
PredicateRef ConjOver(const PredicateRef& pred, PooledAttrs attrs,
                      bool over) {
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

/// The ids of an equi-join conjunct's left and right attributes: the first
/// and last of its referenced list, which holds one id when both sides name
/// the same attribute.
std::array<algebra::AttrId, 2> EquiJoinIds(const Predicate& c) {
  const std::vector<algebra::AttrId>& ids = c.ReferencedAttrs()->ids;
  return {ids.front(), ids.back()};
}

/// Finds an "attr = constant" conjunct whose attribute has an index.
bool FindIndexedEq(const PredicateRef& pred, const catalog::Catalog& cat,
                   Attr* attr, PredicateRef* eq_conjunct) {
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
      if (attr != nullptr) *attr = attr_term->attr;
      if (eq_conjunct != nullptr) *eq_conjunct = c;
      return true;
    }
  }
  return false;
}

}  // namespace

Result<Value> selectivity(const catalog::Catalog* cat, const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p, AsPred(pred, "selectivity"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "selectivity"));
  return Value::Real(catalog::EstimateSelectivity(*p, *c));
}

Result<Value> join_card(const catalog::Catalog* cat, const Value& nl,
                        const Value& nr, const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(double l, AsReal(nl, "join_card"));
  PRAIRIE_ASSIGN_OR_RETURN(double r, AsReal(nr, "join_card"));
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p, AsPred(pred, "join_card"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "join_card"));
  return Value::Real(l * r * catalog::EstimateSelectivity(*p, *c));
}

Result<Value> union_(const catalog::Catalog*, const Value& a,
                     const Value& b) {
  PRAIRIE_RETURN_NOT_OK(AsAttrs(a, "union").status());
  PRAIRIE_RETURN_NOT_OK(AsAttrs(b, "union").status());
  return algebra::UnionAttrs(a, b);
}

Result<Value> attrs_minus(const catalog::Catalog*, const Value& a,
                          const Value& b) {
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs x, AsAttrs(a, "attrs_minus"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs y, AsAttrs(b, "attrs_minus"));
  // Removing nothing leaves `a`'s own pooled list.
  if (!a.is_null() && !x->set.Overlaps(y->set)) return a;
  AttrList out;
  for (size_t i = 0; i < x->attrs.size(); ++i) {
    if (!y->set.Contains(x->ids[i])) out.push_back(x->attrs[i]);
  }
  return Value::Attrs(std::move(out));
}

Result<Value> attrs_subset(const catalog::Catalog*, const Value& a,
                           const Value& b) {
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs x, AsAttrs(a, "attrs_subset"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs y, AsAttrs(b, "attrs_subset"));
  return Value::Bool(x->set.SubsetOf(y->set));
}

Result<Value> conj_over(const catalog::Catalog*, const Value& pred,
                        const Value& attrs) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p, AsPred(pred, "conj_over"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs a, AsAttrs(attrs, "conj_over"));
  return Value::Pred(ConjOver(*p, a, /*over=*/true));
}

Result<Value> conj_not_over(const catalog::Catalog*, const Value& pred,
                            const Value& attrs) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p,
                           AsPred(pred, "conj_not_over"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs a, AsAttrs(attrs, "conj_not_over"));
  return Value::Pred(ConjOver(*p, a, /*over=*/false));
}

Result<Value> conj_count(const catalog::Catalog*, const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p, AsPred(pred, "conj_count"));
  return Value::Int(static_cast<int64_t>(algebra::Conjuncts(*p).size()));
}

Result<Value> first_conjunct(const catalog::Catalog*, const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p,
                           AsPred(pred, "first_conjunct"));
  const std::span<const PredicateRef> cs = algebra::Conjuncts(*p);
  return Value::Pred(cs.empty() ? Predicate::True() : cs[0]);
}

Result<Value> rest_conjuncts(const catalog::Catalog*, const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p,
                           AsPred(pred, "rest_conjuncts"));
  const std::span<const PredicateRef> cs = algebra::Conjuncts(*p);
  if (cs.size() <= 1) return Value::Pred(Predicate::True());
  return Value::Pred(
      Predicate::And(std::vector<PredicateRef>(cs.begin() + 1, cs.end())));
}

Result<Value> pred_and(const catalog::Catalog*, const Value& a,
                       const Value& b) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* x, AsPred(a, "pred_and"));
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* y, AsPred(b, "pred_and"));
  return Value::Pred(algebra::PredAnd(*x, *y));
}

// A predicate's referenced attributes are the union of its conjuncts'
// lists, so refers_both and refers_only test the conjuncts' cached sets one
// by one rather than building the set of a predicate an attempt just made.

Result<Value> refers_both(const catalog::Catalog*, const Value& pred,
                          const Value& a, const Value& b) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p, AsPred(pred, "refers_both"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs x, AsAttrs(a, "refers_both"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs y, AsAttrs(b, "refers_both"));
  bool in_a = false, in_b = false;
  for (const PredicateRef& c : algebra::Conjuncts(*p)) {
    const algebra::AttrSet& refs = c->ReferencedAttrs()->set;
    in_a = in_a || refs.Overlaps(x->set);
    in_b = in_b || refs.Overlaps(y->set);
    if (in_a && in_b) break;
  }
  return Value::Bool(in_a && in_b);
}

Result<Value> refers_only(const catalog::Catalog*, const Value& pred,
                          const Value& attrs) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p, AsPred(pred, "refers_only"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs a, AsAttrs(attrs, "refers_only"));
  for (const PredicateRef& c : algebra::Conjuncts(*p)) {
    if (!c->ReferencedAttrs()->set.SubsetOf(a->set)) {
      return Value::Bool(false);
    }
  }
  return Value::Bool(true);
}

Result<Value> is_equijoinable(const catalog::Catalog*, const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p,
                           AsPred(pred, "is_equijoinable"));
  for (const PredicateRef& c : algebra::Conjuncts(*p)) {
    if (c->IsEquiJoin()) return Value::Bool(true);
  }
  return Value::Bool(false);
}

Result<Value> has_index_eq(const catalog::Catalog* cat, const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p,
                           AsPred(pred, "has_index_eq"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "has_index_eq"));
  return Value::Bool(FindIndexedEq(*p, *c, nullptr, nullptr));
}

Result<Value> indexed_attr(const catalog::Catalog* cat, const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p,
                           AsPred(pred, "indexed_attr"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "indexed_attr"));
  Attr a;
  AttrList out;
  if (FindIndexedEq(*p, *c, &a, nullptr)) out.push_back(a);
  return Value::Attrs(std::move(out));
}

Result<Value> index_eq_cost(const catalog::Catalog* cat, const Value& card,
                            const Value& pred) {
  PRAIRIE_ASSIGN_OR_RETURN(double n, AsReal(card, "index_eq_cost"));
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p,
                           AsPred(pred, "index_eq_cost"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "index_eq_cost"));
  PredicateRef eq;
  Attr a;
  if (!FindIndexedEq(*p, *c, &a, &eq)) {
    return Status::RuleError(
        "index_eq_cost: predicate has no indexed equality conjunct");
  }
  double sel = catalog::EstimateSelectivity(eq, *c);
  return Value::Real(std::max(1.0, n * sel));
}

Result<Value> any_index(const catalog::Catalog* cat, const Value& attrs) {
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs a, AsAttrs(attrs, "any_index"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "any_index"));
  for (const Attr& x : a->attrs) {
    if (c->HasIndexOn(x)) return Value::Bool(true);
  }
  return Value::Bool(false);
}

Result<Value> first_index_attr(const catalog::Catalog* cat,
                               const Value& attrs) {
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs a, AsAttrs(attrs, "first_index_attr"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "first_index_attr"));
  AttrList out;
  for (const Attr& x : a->attrs) {
    if (c->HasIndexOn(x)) {
      out.push_back(x);
      break;
    }
  }
  return Value::Attrs(std::move(out));
}

Result<Value> sort_on(const catalog::Catalog*, const Value& attrs) {
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs a, AsAttrs(attrs, "sort_on"));
  SortSpec spec;
  spec.keys.reserve(a->attrs.size());
  for (const Attr& x : a->attrs) {
    spec.keys.push_back(SortSpec::Key{x, /*ascending=*/true});
  }
  return Value::Sort(std::move(spec));
}

Result<Value> side_join_attrs(const catalog::Catalog*, const Value& pred,
                              const Value& side) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p,
                           AsPred(pred, "side_join_attrs"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs s, AsAttrs(side, "side_join_attrs"));
  AttrList out;
  for (const PredicateRef& c : algebra::Conjuncts(*p)) {
    if (!c->IsEquiJoin()) continue;
    const std::array<algebra::AttrId, 2> ids = EquiJoinIds(*c);
    if (s->set.Contains(ids[0])) {
      out.push_back(c->left().attr);
    } else if (s->set.Contains(ids[1])) {
      out.push_back(c->right().attr);
    }
  }
  return Value::Attrs(std::move(out));
}

Result<Value> is_ref_join(const catalog::Catalog* cat, const Value& pred,
                          const Value& left, const Value& right) {
  PRAIRIE_ASSIGN_OR_RETURN(const PredicateRef* p, AsPred(pred, "is_ref_join"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs l, AsAttrs(left, "is_ref_join"));
  PRAIRIE_ASSIGN_OR_RETURN(PooledAttrs r, AsAttrs(right, "is_ref_join"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "is_ref_join"));
  // A pointer join needs one equi conjunct "l.ref = r.oid" where l.ref is
  // a reference attribute of a left class targeting the right class.
  for (const PredicateRef& conj : algebra::Conjuncts(*p)) {
    if (!conj->IsEquiJoin()) continue;
    const std::array<algebra::AttrId, 2> ids = EquiJoinIds(*conj);
    const algebra::Attr* const sides[2] = {&conj->left().attr,
                                           &conj->right().attr};
    // Side `ref` holds the reference, the other side the oid.
    for (int ref = 0; ref < 2; ++ref) {
      const int oid = 1 - ref;
      if (!l->set.Contains(ids[ref]) || !r->set.Contains(ids[oid])) continue;
      const catalog::StoredFile* f = c->Find(sides[ref]->cls);
      if (f == nullptr) continue;
      const catalog::AttributeDef* ad = f->FindAttr(sides[ref]->name);
      if (ad == nullptr || !ad->is_reference()) continue;
      if (ad->ref_class == sides[oid]->cls && sides[oid]->name == "oid") {
        return Value::Bool(true);
      }
    }
  }
  return Value::Bool(false);
}

Result<Value> class_attrs(const catalog::Catalog* cat, const Value& cls) {
  PRAIRIE_ASSIGN_OR_RETURN(const std::string* name,
                           AsStr(cls, "class_attrs"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "class_attrs"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* f, c->Require(*name));
  return Value::FromPool(f->PooledQualifiedAttrs());
}

Result<Value> class_card(const catalog::Catalog* cat, const Value& cls) {
  PRAIRIE_ASSIGN_OR_RETURN(const std::string* name, AsStr(cls, "class_card"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "class_card"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* f, c->Require(*name));
  return Value::Real(static_cast<double>(f->cardinality()));
}

Result<Value> class_tuple_size(const catalog::Catalog* cat,
                               const Value& cls) {
  PRAIRIE_ASSIGN_OR_RETURN(const std::string* name,
                           AsStr(cls, "class_tuple_size"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::Catalog* c,
                           NeedCat(cat, "class_tuple_size"));
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* f, c->Require(*name));
  return Value::Real(static_cast<double>(f->tuple_size()));
}

Result<Value> log_(const catalog::Catalog*, const Value& x) {
  PRAIRIE_ASSIGN_OR_RETURN(double v, AsReal(x, "log"));
  return Value::Real(v <= 1.0 ? 0.0 : std::log(v));
}

Result<Value> log2_(const catalog::Catalog*, const Value& x) {
  PRAIRIE_ASSIGN_OR_RETURN(double v, AsReal(x, "log2"));
  return Value::Real(v <= 1.0 ? 0.0 : std::log2(v));
}

Result<Value> ceil_(const catalog::Catalog*, const Value& x) {
  PRAIRIE_ASSIGN_OR_RETURN(double v, AsReal(x, "ceil"));
  return Value::Real(std::ceil(v));
}

Result<Value> floor_(const catalog::Catalog*, const Value& x) {
  PRAIRIE_ASSIGN_OR_RETURN(double v, AsReal(x, "floor"));
  return Value::Real(std::floor(v));
}

Result<Value> abs_(const catalog::Catalog*, const Value& x) {
  PRAIRIE_ASSIGN_OR_RETURN(double v, AsReal(x, "abs"));
  return Value::Real(std::fabs(v));
}

Result<Value> pow_(const catalog::Catalog*, const Value& b, const Value& e) {
  PRAIRIE_ASSIGN_OR_RETURN(double base, AsReal(b, "pow"));
  PRAIRIE_ASSIGN_OR_RETURN(double exp, AsReal(e, "pow"));
  return Value::Real(std::pow(base, exp));
}

std::map<std::string, std::string> NativeHelperMap() {
  const char* ns = "prairie::opt::native::";
  std::map<std::string, std::string> out;
  for (const char* name :
       {"selectivity", "join_card", "attrs_minus", "attrs_subset",
        "conj_over", "conj_not_over", "conj_count", "first_conjunct",
        "rest_conjuncts", "pred_and", "refers_both", "refers_only",
        "is_equijoinable", "has_index_eq", "indexed_attr", "index_eq_cost",
        "any_index", "first_index_attr", "sort_on", "side_join_attrs",
        "is_ref_join", "class_attrs", "class_card", "class_tuple_size"}) {
    out[name] = std::string(ns) + name;
  }
  out["union"] = std::string(ns) + "union_";
  out["log"] = std::string(ns) + "log_";
  out["log2"] = std::string(ns) + "log2_";
  out["ceil"] = std::string(ns) + "ceil_";
  out["floor"] = std::string(ns) + "floor_";
  out["abs"] = std::string(ns) + "abs_";
  out["pow"] = std::string(ns) + "pow_";
  return out;
}

}  // namespace prairie::opt::native
