#include "optimizers/executors.h"

#include "optimizers/props.h"

namespace prairie::opt {

using algebra::Attr;
using algebra::AttrList;
using algebra::Expr;
using algebra::Predicate;
using algebra::PredicateRef;
using algebra::SortSpec;
using algebra::Value;
using algebra::ValueType;
using common::Result;
using common::Status;
using exec::Datum;
using exec::IterPtr;
using exec::PlanBuilder;
using exec::Table;

namespace {

Result<PredicateRef> ReadPred(const PlanBuilder& b, const char* prop) {
  PRAIRIE_ASSIGN_OR_RETURN(Value v, b.Prop(prop));
  if (v.is_null()) return Predicate::True();
  if (v.type() != ValueType::kPred || v.AsPred() == nullptr) {
    return Predicate::True();
  }
  return v.AsPred();
}

Result<AttrList> ReadAttrs(const PlanBuilder& b, const char* prop) {
  PRAIRIE_ASSIGN_OR_RETURN(Value v, b.Prop(prop));
  if (v.is_null()) return AttrList{};
  if (v.type() != ValueType::kAttrs) {
    return Status::ExecError(std::string("plan property '") + prop +
                             "' is not an attribute list");
  }
  return v.AsAttrs();
}

/// Extracts the constant of an "attr = const" conjunct on `attr`.
std::optional<Datum> EqKeyFor(const PredicateRef& pred, const Attr& attr) {
  for (const PredicateRef& c : algebra::Conjuncts(pred)) {
    if (c->kind() != Predicate::Kind::kCmp ||
        c->cmp_op() != algebra::CmpOp::kEq) {
      continue;
    }
    if (c->left().is_attr() && !c->right().is_attr() &&
        c->left().attr == attr) {
      return c->right().scalar;
    }
    if (c->right().is_attr() && !c->left().is_attr() &&
        c->right().attr == attr) {
      return c->left().scalar;
    }
  }
  return std::nullopt;
}

Result<IterPtr> MakeFileScanIter(const Expr&, PlanBuilder& b) {
  PRAIRIE_ASSIGN_OR_RETURN(const Table* t, b.ChildTable(0));
  PRAIRIE_ASSIGN_OR_RETURN(PredicateRef pred,
                           ReadPred(b, kSelectionPredicate));
  IterPtr scan = exec::MakeTableScan(t);
  if (pred->is_true()) return scan;
  return exec::MakeFilter(std::move(scan), std::move(pred));
}

Result<IterPtr> MakeIndexScanIter(const Expr&, PlanBuilder& b) {
  PRAIRIE_ASSIGN_OR_RETURN(const Table* t, b.ChildTable(0));
  PRAIRIE_ASSIGN_OR_RETURN(PredicateRef pred,
                           ReadPred(b, kSelectionPredicate));
  PRAIRIE_ASSIGN_OR_RETURN(AttrList idx, ReadAttrs(b, kIndexAttr));
  if (idx.empty()) {
    return Status::ExecError("index scan plan node without index_attr");
  }
  std::optional<Datum> key = EqKeyFor(pred, idx[0]);
  return exec::MakeIndexScan(t, idx[0].name, std::move(key), std::move(pred));
}

Result<IterPtr> MakeFilterIter(const Expr&, PlanBuilder& b) {
  PRAIRIE_ASSIGN_OR_RETURN(IterPtr in, b.BuildChild(0));
  PRAIRIE_ASSIGN_OR_RETURN(PredicateRef pred,
                           ReadPred(b, kSelectionPredicate));
  return exec::MakeFilter(std::move(in), std::move(pred));
}

Result<IterPtr> MakeProjectionIter(const Expr&, PlanBuilder& b) {
  PRAIRIE_ASSIGN_OR_RETURN(IterPtr in, b.BuildChild(0));
  PRAIRIE_ASSIGN_OR_RETURN(AttrList attrs, ReadAttrs(b, kProjectedAttributes));
  return exec::MakeProject(std::move(in), std::move(attrs));
}

enum class JoinAlg { kNestedLoops, kHash, kMerge };

Result<IterPtr> MakeJoinIter(PlanBuilder& b, JoinAlg alg) {
  PRAIRIE_ASSIGN_OR_RETURN(IterPtr l, b.BuildChild(0));
  PRAIRIE_ASSIGN_OR_RETURN(IterPtr r, b.BuildChild(1));
  PRAIRIE_ASSIGN_OR_RETURN(PredicateRef pred, ReadPred(b, kJoinPredicate));
  switch (alg) {
    case JoinAlg::kNestedLoops:
      return exec::MakeNestedLoopsJoin(std::move(l), std::move(r),
                                       std::move(pred));
    case JoinAlg::kHash:
      return exec::MakeHashJoin(std::move(l), std::move(r), std::move(pred));
    case JoinAlg::kMerge:
      return exec::MakeMergeJoin(std::move(l), std::move(r), std::move(pred));
  }
  return Status::Internal("unknown join algorithm");
}

Result<IterPtr> MakeDerefIter(const Expr&, PlanBuilder& b) {
  PRAIRIE_ASSIGN_OR_RETURN(IterPtr in, b.BuildChild(0));
  PRAIRIE_ASSIGN_OR_RETURN(AttrList ref, ReadAttrs(b, kMatAttr));
  PRAIRIE_ASSIGN_OR_RETURN(Value cls, b.Prop(kMatClass));
  if (ref.empty() || cls.is_null() || cls.type() != ValueType::kString) {
    return Status::ExecError("Deref plan node missing mat_attr/mat_class");
  }
  PRAIRIE_ASSIGN_OR_RETURN(const Table* target,
                           b.db().Require(cls.AsString()));
  return exec::MakeDeref(std::move(in), ref[0], target);
}

Result<IterPtr> MakeFlattenIter(const Expr&, PlanBuilder& b) {
  PRAIRIE_ASSIGN_OR_RETURN(IterPtr in, b.BuildChild(0));
  PRAIRIE_ASSIGN_OR_RETURN(AttrList attrs, ReadAttrs(b, kUnnestAttr));
  if (attrs.empty()) {
    return Status::ExecError("Flatten plan node missing unnest_attr");
  }
  PRAIRIE_ASSIGN_OR_RETURN(const Table* t, b.db().Require(attrs[0].cls));
  return exec::MakeFlatten(std::move(in), attrs[0], t);
}

Result<IterPtr> MakeMergeSortIter(const Expr&, PlanBuilder& b) {
  PRAIRIE_ASSIGN_OR_RETURN(IterPtr in, b.BuildChild(0));
  PRAIRIE_ASSIGN_OR_RETURN(Value order, b.Prop(kTupleOrder));
  if (order.is_null() || order.type() != ValueType::kSort) {
    return Status::ExecError("Merge_sort plan node without a tuple_order");
  }
  return exec::MakeSort(std::move(in), order.AsSort());
}

}  // namespace

Status RegisterStandardExecutors(exec::ExecutorRegistry* reg) {
  PRAIRIE_RETURN_NOT_OK(reg->Register("File_scan", MakeFileScanIter));
  PRAIRIE_RETURN_NOT_OK(reg->Register("Index_scan", MakeIndexScanIter));
  PRAIRIE_RETURN_NOT_OK(reg->Register("Btree_scan", MakeIndexScanIter));
  PRAIRIE_RETURN_NOT_OK(reg->Register("Filter", MakeFilterIter));
  PRAIRIE_RETURN_NOT_OK(reg->Register("Projection", MakeProjectionIter));
  PRAIRIE_RETURN_NOT_OK(reg->Register(
      "Nested_loops", [](const Expr&, PlanBuilder& b) {
        return MakeJoinIter(b, JoinAlg::kNestedLoops);
      }));
  PRAIRIE_RETURN_NOT_OK(
      reg->Register("Hash_join", [](const Expr&, PlanBuilder& b) {
        return MakeJoinIter(b, JoinAlg::kHash);
      }));
  // Pointer chasing probes the inner stream by OID; a hash probe realizes
  // exactly that over in-memory extents.
  PRAIRIE_RETURN_NOT_OK(
      reg->Register("Pointer_join", [](const Expr&, PlanBuilder& b) {
        return MakeJoinIter(b, JoinAlg::kHash);
      }));
  PRAIRIE_RETURN_NOT_OK(
      reg->Register("Merge_join", [](const Expr&, PlanBuilder& b) {
        return MakeJoinIter(b, JoinAlg::kMerge);
      }));
  PRAIRIE_RETURN_NOT_OK(reg->Register("Deref", MakeDerefIter));
  PRAIRIE_RETURN_NOT_OK(reg->Register("Flatten", MakeFlattenIter));
  PRAIRIE_RETURN_NOT_OK(reg->Register("Merge_sort", MakeMergeSortIter));
  return Status::OK();
}

}  // namespace prairie::opt
