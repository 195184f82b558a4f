#include "optimizers/props.h"

#include "algebra/descriptor_store.h"
#include "optimizers/native_helpers.h"

#include <algorithm>

#include "common/strings.h"

namespace prairie::opt {

using algebra::Attr;
using algebra::AttrList;
using algebra::Descriptor;
using algebra::Expr;
using algebra::ExprPtr;
using algebra::Predicate;
using algebra::PredicateRef;
using algebra::PropertySchema;
using algebra::SortSpec;
using algebra::Value;
using algebra::ValueType;
using common::Result;
using common::Status;
using core::EvalContext;
using core::EvalResult;
using core::HelperRegistry;

common::Result<Props> Props::FromSchema(const PropertySchema& schema) {
  Props p;
  auto get = [&schema](const char* name) -> Result<algebra::PropertyId> {
    return schema.Require(name);
  };
  PRAIRIE_ASSIGN_OR_RETURN(p.tuple_order, get(kTupleOrder));
  PRAIRIE_ASSIGN_OR_RETURN(p.num_records, get(kNumRecords));
  PRAIRIE_ASSIGN_OR_RETURN(p.tuple_size, get(kTupleSize));
  PRAIRIE_ASSIGN_OR_RETURN(p.attributes, get(kAttributes));
  PRAIRIE_ASSIGN_OR_RETURN(p.selection_predicate, get(kSelectionPredicate));
  PRAIRIE_ASSIGN_OR_RETURN(p.join_predicate, get(kJoinPredicate));
  PRAIRIE_ASSIGN_OR_RETURN(p.projected_attributes, get(kProjectedAttributes));
  PRAIRIE_ASSIGN_OR_RETURN(p.index_attr, get(kIndexAttr));
  PRAIRIE_ASSIGN_OR_RETURN(p.mat_attr, get(kMatAttr));
  PRAIRIE_ASSIGN_OR_RETURN(p.mat_class, get(kMatClass));
  PRAIRIE_ASSIGN_OR_RETURN(p.unnest_attr, get(kUnnestAttr));
  PRAIRIE_ASSIGN_OR_RETURN(p.unnest_mult, get(kUnnestMult));
  PRAIRIE_ASSIGN_OR_RETURN(p.cost, get(kCost));
  return p;
}

Status AddStandardProperties(PropertySchema* schema) {
  PRAIRIE_RETURN_NOT_OK(schema->Add(kTupleOrder, ValueType::kSort));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kNumRecords, ValueType::kReal));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kTupleSize, ValueType::kReal));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kAttributes, ValueType::kAttrs));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kSelectionPredicate, ValueType::kPred));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kJoinPredicate, ValueType::kPred));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kProjectedAttributes, ValueType::kAttrs));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kIndexAttr, ValueType::kAttrs));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kMatAttr, ValueType::kAttrs));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kMatClass, ValueType::kString));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kUnnestAttr, ValueType::kAttrs));
  PRAIRIE_RETURN_NOT_OK(schema->Add(kUnnestMult, ValueType::kReal));
  PRAIRIE_RETURN_NOT_OK(
      schema->Add(algebra::PropertyDecl{kCost, ValueType::kReal,
                                        /*is_cost=*/true}));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Helper functions: thin registry adapters over the native implementations
// (optimizers/native_helpers.h) so the interpreted and the code-generated
// P2V deployments share one definition of every support function.
// ---------------------------------------------------------------------------

namespace {

template <typename Fn>
Status CheckScalars(std::span<const EvalResult> args, const char* name,
                    Fn&&) {
  for (const EvalResult& a : args) {
    if (a.is_desc()) {
      return Status::TypeError(std::string(name) +
                               ": whole descriptors are not accepted");
    }
  }
  return Status::OK();
}

using Native1 = Result<Value> (*)(const catalog::Catalog*, const Value&);
using Native2 = Result<Value> (*)(const catalog::Catalog*, const Value&,
                                  const Value&);
using Native3 = Result<Value> (*)(const catalog::Catalog*, const Value&,
                                  const Value&, const Value&);

Status Reg(HelperRegistry* reg, const char* name, Native1 fn) {
  return reg->Register(
      name, 1,
      [fn, name](std::span<const EvalResult> args,
                 const EvalContext& ctx) -> Result<Value> {
        PRAIRIE_RETURN_NOT_OK(CheckScalars(args, name, fn));
        return fn(ctx.catalog, args[0].val());
      });
}

Status Reg(HelperRegistry* reg, const char* name, Native2 fn) {
  return reg->Register(
      name, 2,
      [fn, name](std::span<const EvalResult> args,
                 const EvalContext& ctx) -> Result<Value> {
        PRAIRIE_RETURN_NOT_OK(CheckScalars(args, name, fn));
        return fn(ctx.catalog, args[0].val(), args[1].val());
      });
}

Status Reg(HelperRegistry* reg, const char* name, Native3 fn) {
  return reg->Register(
      name, 3,
      [fn, name](std::span<const EvalResult> args,
                 const EvalContext& ctx) -> Result<Value> {
        PRAIRIE_RETURN_NOT_OK(CheckScalars(args, name, fn));
        return fn(ctx.catalog, args[0].val(), args[1].val(), args[2].val());
      });
}

}  // namespace

Status RegisterDomainHelpers(HelperRegistry* reg) {
  namespace nh = ::prairie::opt::native;
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "selectivity", nh::selectivity));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "join_card", nh::join_card));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "union", nh::union_));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "attrs_minus", nh::attrs_minus));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "attrs_subset", nh::attrs_subset));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "conj_over", nh::conj_over));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "conj_not_over", nh::conj_not_over));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "conj_count", nh::conj_count));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "first_conjunct", nh::first_conjunct));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "rest_conjuncts", nh::rest_conjuncts));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "pred_and", nh::pred_and));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "refers_both", nh::refers_both));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "refers_only", nh::refers_only));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "is_equijoinable", nh::is_equijoinable));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "has_index_eq", nh::has_index_eq));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "indexed_attr", nh::indexed_attr));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "index_eq_cost", nh::index_eq_cost));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "any_index", nh::any_index));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "first_index_attr", nh::first_index_attr));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "sort_on", nh::sort_on));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "side_join_attrs", nh::side_join_attrs));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "is_ref_join", nh::is_ref_join));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "class_attrs", nh::class_attrs));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "class_card", nh::class_card));
  PRAIRIE_RETURN_NOT_OK(Reg(reg, "class_tuple_size", nh::class_tuple_size));
  return Status::OK();
}

std::shared_ptr<HelperRegistry> StandardHelpers() {
  auto reg = HelperRegistry::WithBuiltins();
  Status st = RegisterDomainHelpers(reg.get());
  (void)st;  // Registrations over a fresh registry cannot collide.
  return reg;
}

// ---------------------------------------------------------------------------
// TreeBuilder
// ---------------------------------------------------------------------------

Result<double> TreeBuilder::NumRecordsOf(const Expr& e) const {
  PRAIRIE_ASSIGN_OR_RETURN(Value v, e.descriptor().Get(kNumRecords));
  if (v.is_null()) {
    return Status::Internal("expression node missing num_records");
  }
  return v.ToReal();
}

Result<ExprPtr> TreeBuilder::Ret(const std::string& file,
                                 PredicateRef selection) {
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* f,
                           catalog_->Require(file));
  PRAIRIE_ASSIGN_OR_RETURN(algebra::OpId ret, algebra_->Require("RET"));
  const PropertySchema& schema = algebra_->properties();

  algebra::DescriptorBuilder leaf(&schema);
  AttrList attrs = f->QualifiedAttrs();
  PRAIRIE_RETURN_NOT_OK(leaf.SetNamed(
      kNumRecords, Value::Real(static_cast<double>(f->cardinality()))));
  PRAIRIE_RETURN_NOT_OK(leaf.SetNamed(
      kTupleSize, Value::Real(static_cast<double>(f->tuple_size()))));
  PRAIRIE_RETURN_NOT_OK(leaf.SetNamed(kAttributes, Value::Attrs(attrs)));
  ExprPtr leaf_node = Expr::MakeFile(file, std::move(leaf).Build());

  double sel = catalog::EstimateSelectivity(selection, *catalog_);
  algebra::DescriptorBuilder d(&schema);
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kNumRecords, Value::Real(static_cast<double>(f->cardinality()) * sel)));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kTupleSize, Value::Real(static_cast<double>(f->tuple_size()))));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kAttributes, Value::Attrs(attrs)));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kSelectionPredicate,
      Value::Pred(selection == nullptr ? Predicate::True() : selection)));
  PRAIRIE_RETURN_NOT_OK(
      d.SetNamed(kProjectedAttributes, Value::Attrs(std::move(attrs))));
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(leaf_node));
  return Expr::MakeOp(ret, std::move(kids), std::move(d).Build());
}

Result<ExprPtr> TreeBuilder::Join(ExprPtr left, ExprPtr right,
                                  PredicateRef pred) {
  PRAIRIE_ASSIGN_OR_RETURN(algebra::OpId join, algebra_->Require("JOIN"));
  const PropertySchema& schema = algebra_->properties();
  PRAIRIE_ASSIGN_OR_RETURN(double nl, NumRecordsOf(*left));
  PRAIRIE_ASSIGN_OR_RETURN(double nr, NumRecordsOf(*right));
  PRAIRIE_ASSIGN_OR_RETURN(Value la, left->descriptor().Get(kAttributes));
  PRAIRIE_ASSIGN_OR_RETURN(Value ra, right->descriptor().Get(kAttributes));
  PRAIRIE_ASSIGN_OR_RETURN(Value ls, left->descriptor().Get(kTupleSize));
  PRAIRIE_ASSIGN_OR_RETURN(Value rs, right->descriptor().Get(kTupleSize));

  algebra::DescriptorBuilder d(&schema);
  double sel = catalog::EstimateSelectivity(pred, *catalog_);
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kNumRecords, Value::Real(nl * nr * sel)));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kTupleSize,
      Value::Real(ls.ToReal().ValueOr(0) + rs.ToReal().ValueOr(0))));
  PRAIRIE_RETURN_NOT_OK(
      d.SetNamed(kAttributes,
            Value::Attrs(algebra::UnionAttrs(la.AsAttrs(), ra.AsAttrs()))));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kJoinPredicate,
      Value::Pred(pred == nullptr ? Predicate::True() : pred)));
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(left));
  kids.push_back(std::move(right));
  return Expr::MakeOp(join, std::move(kids), std::move(d).Build());
}

Result<ExprPtr> TreeBuilder::Select(ExprPtr input, PredicateRef pred) {
  PRAIRIE_ASSIGN_OR_RETURN(algebra::OpId sel_op, algebra_->Require("SELECT"));
  const PropertySchema& schema = algebra_->properties();
  PRAIRIE_ASSIGN_OR_RETURN(double n, NumRecordsOf(*input));
  PRAIRIE_ASSIGN_OR_RETURN(Value attrs, input->descriptor().Get(kAttributes));
  PRAIRIE_ASSIGN_OR_RETURN(Value size, input->descriptor().Get(kTupleSize));
  double sel = catalog::EstimateSelectivity(pred, *catalog_);

  algebra::DescriptorBuilder d(&schema);
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kNumRecords, Value::Real(n * sel)));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kTupleSize, size));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kAttributes, attrs));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kSelectionPredicate,
      Value::Pred(pred == nullptr ? Predicate::True() : pred)));
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(input));
  return Expr::MakeOp(sel_op, std::move(kids), std::move(d).Build());
}

Result<ExprPtr> TreeBuilder::Project(ExprPtr input, AttrList attrs) {
  PRAIRIE_ASSIGN_OR_RETURN(algebra::OpId proj, algebra_->Require("PROJECT"));
  const PropertySchema& schema = algebra_->properties();
  PRAIRIE_ASSIGN_OR_RETURN(double n, NumRecordsOf(*input));
  algebra::DescriptorBuilder d(&schema);
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kNumRecords, Value::Real(n)));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kTupleSize, Value::Real(16.0 * static_cast<double>(attrs.size()))));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kAttributes, Value::Attrs(attrs)));
  PRAIRIE_RETURN_NOT_OK(
      d.SetNamed(kProjectedAttributes, Value::Attrs(std::move(attrs))));
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(input));
  return Expr::MakeOp(proj, std::move(kids), std::move(d).Build());
}

Result<ExprPtr> TreeBuilder::Mat(ExprPtr input, Attr ref_attr) {
  PRAIRIE_ASSIGN_OR_RETURN(algebra::OpId mat, algebra_->Require("MAT"));
  const PropertySchema& schema = algebra_->properties();
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* src,
                           catalog_->Require(ref_attr.cls));
  PRAIRIE_ASSIGN_OR_RETURN(catalog::AttributeDef ad,
                           src->RequireAttr(ref_attr.name));
  if (!ad.is_reference()) {
    return Status::InvalidArgument("attribute '" + ref_attr.ToString() +
                                   "' is not a reference attribute");
  }
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* target,
                           catalog_->Require(ad.ref_class));
  PRAIRIE_ASSIGN_OR_RETURN(double n, NumRecordsOf(*input));
  PRAIRIE_ASSIGN_OR_RETURN(Value attrs, input->descriptor().Get(kAttributes));
  PRAIRIE_ASSIGN_OR_RETURN(Value size, input->descriptor().Get(kTupleSize));

  algebra::DescriptorBuilder d(&schema);
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kNumRecords, Value::Real(n)));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kTupleSize,
      Value::Real(size.ToReal().ValueOr(0) +
                  static_cast<double>(target->tuple_size()))));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(
      kAttributes, Value::Attrs(algebra::UnionAttrs(
                       attrs.AsAttrs(), target->QualifiedAttrs()))));
  PRAIRIE_RETURN_NOT_OK(
      d.SetNamed(kMatAttr, Value::Attrs(AttrList{std::move(ref_attr)})));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kMatClass, Value::Str(ad.ref_class)));
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(input));
  return Expr::MakeOp(mat, std::move(kids), std::move(d).Build());
}

Result<ExprPtr> TreeBuilder::Unnest(ExprPtr input, Attr set_attr) {
  PRAIRIE_ASSIGN_OR_RETURN(algebra::OpId unnest, algebra_->Require("UNNEST"));
  const PropertySchema& schema = algebra_->properties();
  PRAIRIE_ASSIGN_OR_RETURN(const catalog::StoredFile* src,
                           catalog_->Require(set_attr.cls));
  PRAIRIE_ASSIGN_OR_RETURN(catalog::AttributeDef ad,
                           src->RequireAttr(set_attr.name));
  if (!ad.set_valued) {
    return Status::InvalidArgument("attribute '" + set_attr.ToString() +
                                   "' is not set-valued");
  }
  PRAIRIE_ASSIGN_OR_RETURN(double n, NumRecordsOf(*input));
  PRAIRIE_ASSIGN_OR_RETURN(Value attrs, input->descriptor().Get(kAttributes));
  PRAIRIE_ASSIGN_OR_RETURN(Value size, input->descriptor().Get(kTupleSize));

  algebra::DescriptorBuilder d(&schema);
  PRAIRIE_RETURN_NOT_OK(
      d.SetNamed(kNumRecords, Value::Real(n * ad.avg_set_size)));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kTupleSize, size));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kAttributes, attrs));
  PRAIRIE_RETURN_NOT_OK(
      d.SetNamed(kUnnestAttr, Value::Attrs(AttrList{std::move(set_attr)})));
  PRAIRIE_RETURN_NOT_OK(d.SetNamed(kUnnestMult, Value::Real(ad.avg_set_size)));
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(input));
  return Expr::MakeOp(unnest, std::move(kids), std::move(d).Build());
}

}  // namespace prairie::opt
