// Tests for the DSL pretty-printer (round-trip property) and the P2V C++
// emitter (structure of generated source; behavioural equivalence is
// covered by test_emitted.cc against the build-time-generated code).

#include <gtest/gtest.h>

#include "dsl/parser.h"
#include "dsl/printer.h"
#include "optimizers/native_helpers.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/relational.h"
#include "optimizers/volcano_hand.h"
#include "p2v/emit_cpp.h"

namespace prairie {
namespace {

core::RuleSet MustParse(const std::string& src) {
  auto r = dsl::ParseRuleSet(src, opt::StandardHelpers());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueUnsafe();
}

// ---------------------------------------------------------------------------
// Printer round trips
// ---------------------------------------------------------------------------

void ExpectStructurallyEqual(const core::RuleSet& a, const core::RuleSet& b) {
  ASSERT_EQ(a.trules.size(), b.trules.size());
  ASSERT_EQ(a.irules.size(), b.irules.size());
  ASSERT_EQ(a.algebra->size(), b.algebra->size());
  ASSERT_EQ(a.algebra->properties().size(), b.algebra->properties().size());
  for (size_t i = 0; i < a.trules.size(); ++i) {
    const core::TRule& x = a.trules[i];
    const core::TRule& y = b.trules[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_TRUE(x.lhs->Same(*y.lhs)) << x.name;
    EXPECT_TRUE(x.rhs->Same(*y.rhs)) << x.name;
    EXPECT_EQ(x.pre_test.size(), y.pre_test.size());
    EXPECT_EQ(x.post_test.size(), y.post_test.size());
    EXPECT_EQ(x.test == nullptr, y.test == nullptr);
    if (x.test != nullptr && y.test != nullptr) {
      EXPECT_EQ(x.test->ToString(), y.test->ToString()) << x.name;
    }
    for (size_t k = 0; k < x.post_test.size(); ++k) {
      EXPECT_EQ(x.post_test[k].ToString(), y.post_test[k].ToString());
    }
  }
  for (size_t i = 0; i < a.irules.size(); ++i) {
    const core::IRule& x = a.irules[i];
    const core::IRule& y = b.irules[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(a.algebra->name(x.op), b.algebra->name(y.op));
    EXPECT_EQ(a.algebra->name(x.alg), b.algebra->name(y.alg));
    EXPECT_EQ(x.rhs_input_slots, y.rhs_input_slots);
    EXPECT_EQ(x.alg_slot, y.alg_slot);
    for (size_t k = 0; k < x.pre_opt.size(); ++k) {
      EXPECT_EQ(x.pre_opt[k].ToString(), y.pre_opt[k].ToString());
    }
    for (size_t k = 0; k < x.post_opt.size(); ++k) {
      EXPECT_EQ(x.post_opt[k].ToString(), y.post_opt[k].ToString());
    }
  }
}

TEST(Printer, RelationalSpecRoundTrips) {
  core::RuleSet original = MustParse(opt::RelationalSpecText());
  auto printed = dsl::PrintRuleSet(original);
  ASSERT_TRUE(printed.ok()) << printed.status().ToString();
  core::RuleSet reparsed = MustParse(*printed);
  ExpectStructurallyEqual(original, reparsed);
}

TEST(Printer, OodbSpecRoundTrips) {
  core::RuleSet original = MustParse(opt::OodbSpecText());
  auto printed = dsl::PrintRuleSet(original);
  ASSERT_TRUE(printed.ok()) << printed.status().ToString();
  core::RuleSet reparsed = MustParse(*printed);
  ExpectStructurallyEqual(original, reparsed);
}

TEST(Printer, PrintIsAFixpoint) {
  core::RuleSet original = MustParse(opt::OodbSpecText());
  auto once = dsl::PrintRuleSet(original);
  ASSERT_TRUE(once.ok());
  core::RuleSet reparsed = MustParse(*once);
  auto twice = dsl::PrintRuleSet(reparsed);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(*once, *twice);
}

// ---------------------------------------------------------------------------
// Emitter structure
// ---------------------------------------------------------------------------

TEST(EmitCpp, EmitsExpectedStructure) {
  core::RuleSet rules = MustParse(opt::RelationalSpecText());
  p2v::EmitOptions options;
  options.function_name = "BuildX";
  options.namespace_name = "gen_test";
  auto source = p2v::EmitCpp(rules, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  // The generated TU declares the factory in the requested namespace...
  EXPECT_NE(source->find("namespace gen_test {"), std::string::npos);
  EXPECT_NE(source->find("BuildX(std::shared_ptr<prairie::core::"
                         "HelperRegistry> helpers)"),
            std::string::npos);
  // ... contains the kept rules but not the merged-away ones ...
  EXPECT_NE(source->find("// trans_rule join_commute"), std::string::npos);
  EXPECT_EQ(source->find("intro_sort_ret"), std::string::npos);
  // ... resolves the JOPR-style aliases (RETS never appears in rules) ...
  EXPECT_EQ(source->find("r.op = kOp_RETS"), std::string::npos);
  // ... registers the enforcer and classifies properties.
  EXPECT_NE(source->find("// enforcer merge_sort"), std::string::npos);
  EXPECT_NE(source->find("rules->phys_props = {kProp_tuple_order};"),
            std::string::npos);
  EXPECT_NE(source->find("rules->cost_prop = 12;"), std::string::npos);
}

TEST(EmitCpp, NativeHelperBindingsAreUsedWhenGiven) {
  core::RuleSet rules = MustParse(opt::RelationalSpecText());
  p2v::EmitOptions with;
  with.native_helpers = opt::native::NativeHelperMap();
  auto direct = p2v::EmitCpp(rules, with);
  ASSERT_TRUE(direct.ok());
  EXPECT_NE(direct->find("prairie::opt::native::is_equijoinable(c.bv.catalog"),
            std::string::npos);
  EXPECT_EQ(direct->find("ES::Call(c, \"is_equijoinable\""),
            std::string::npos);

  auto registry = p2v::EmitCpp(rules, p2v::EmitOptions{});
  ASSERT_TRUE(registry.ok());
  EXPECT_NE(registry->find("ES::Call(c, \"is_equijoinable\""),
            std::string::npos);
}

TEST(EmitCpp, RejectsUnemittableRuleSets) {
  // Two cost properties fail the shared analysis.
  auto rules = dsl::ParseRuleSet(R"(
property c1 : cost;
property c2 : cost;
operator O(1);
algorithm A(1);
irule r: O[D2](?1) => A[D3](?1) {
  postopt { D3.c1 = 0; D3.c2 = 0; }
}
)");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_FALSE(p2v::EmitCpp(*rules).ok());
}

// ---------------------------------------------------------------------------
// Native helpers (direct unit checks on a few interesting ones)
// ---------------------------------------------------------------------------

TEST(NativeHelpers, MapCoversTheStandardRegistry) {
  auto reg = opt::StandardHelpers();
  auto map = opt::native::NativeHelperMap();
  // Every domain helper and the unary/binary numeric builtins have native
  // bindings; only the variadic min/max fall back to the registry.
  for (const std::string& name : reg->Names()) {
    if (name == "min" || name == "max") continue;
    EXPECT_TRUE(map.count(name) > 0) << "no native binding for " << name;
  }
}

TEST(NativeHelpers, NullPredicatesActAsTrue) {
  using algebra::Value;
  auto sel = opt::native::selectivity(nullptr, Value::Null());
  // TRUE predicate over no catalog still needs a catalog.
  EXPECT_FALSE(sel.ok());
  catalog::Catalog cat;
  auto sel2 = opt::native::selectivity(&cat, Value::Null());
  ASSERT_TRUE(sel2.ok());
  EXPECT_DOUBLE_EQ(sel2->AsReal(), 1.0);
}

TEST(NativeHelpers, TypeErrorsSurface) {
  catalog::Catalog cat;
  using algebra::Value;
  EXPECT_FALSE(opt::native::selectivity(&cat, Value::Int(3)).ok());
  EXPECT_FALSE(opt::native::union_(&cat, Value::Int(1), Value::Int(2)).ok());
  EXPECT_FALSE(opt::native::class_card(&cat, Value::Str("nope")).ok());
}

/// The attribute-set helpers of the native deployments, their hand-coded
/// forms and the attribute-by-attribute compares they replaced answer
/// alike on TRUE, null, single- and multi-conjunct predicates over
/// attributes in one list, both or neither.
TEST(NativeHelpers, AttributeSetTestsAgreeWithHandCodedForms) {
  using algebra::Attr;
  using algebra::AttrList;
  using algebra::PooledAttrs;
  using algebra::Predicate;
  using algebra::PredicateRef;
  using algebra::Scalar;
  using algebra::Value;
  namespace native = opt::native;

  const auto def = [](std::string name, std::string ref_class = "") {
    catalog::AttributeDef d;
    d.name = std::move(name);
    d.ref_class = std::move(ref_class);
    return d;
  };
  catalog::Catalog cat;
  ASSERT_TRUE(cat.AddFile(catalog::StoredFile(
                              "H1", {def("oid"), def("a"), def("r", "H2")},
                              100, 24))
                  .ok());
  ASSERT_TRUE(
      cat.AddFile(catalog::StoredFile("H2", {def("oid"), def("b")}, 50, 16))
          .ok());
  const auto at = [](const char* cls, const char* name) {
    return Attr{cls, name};
  };

  const PredicateRef ref_join = Predicate::EqAttrs(at("H1", "r"), at("H2", "oid"));
  const PredicateRef ref_join_flipped =
      Predicate::EqAttrs(at("H2", "oid"), at("H1", "r"));
  const PredicateRef eq = Predicate::EqAttrs(at("H1", "a"), at("H2", "b"));
  const PredicateRef self = Predicate::EqAttrs(at("H1", "a"), at("H1", "a"));
  const PredicateRef sel = Predicate::EqConst(at("H1", "a"), Scalar::Int(3));
  const PredicateRef sel2 = Predicate::EqConst(at("H2", "b"), Scalar::Int(7));
  const PredicateRef stray = Predicate::EqAttrs(at("H9", "z"), at("H2", "b"));
  const PredicateRef either = Predicate::Or({sel, eq});
  const std::vector<Value> preds = {
      Value::Null(),
      Value::Pred(Predicate::True()),
      Value::Pred(ref_join),
      Value::Pred(ref_join_flipped),
      Value::Pred(eq),
      Value::Pred(self),
      Value::Pred(sel),
      Value::Pred(stray),
      Value::Pred(either),
      Value::Pred(Predicate::And({sel, eq})),
      Value::Pred(Predicate::And({ref_join, eq, self})),
      Value::Pred(Predicate::And({sel, stray, either})),
      // Each conjunct names one side only; together they name both.
      Value::Pred(Predicate::And({sel, sel2})),
      Value::Pred(Predicate::And({sel2, stray, sel})),
  };
  const std::vector<Value> lists = {
      Value::Null(),
      Value::Attrs({}),
      Value::Attrs(cat.Find("H1")->QualifiedAttrs()),
      Value::Attrs(cat.Find("H2")->QualifiedAttrs()),
      Value::Attrs({at("H1", "a")}),
      Value::Attrs({at("H2", "b"), at("H1", "a"), at("H2", "b")}),
      Value::Attrs({at("H8", "q")}),  // In no predicate.
  };

  const auto pred_of = [](const Value& v) {
    return v.is_null() ? Predicate::True() : v.AsPred();
  };
  const auto pooled = [](const Value& v) {
    return v.is_null() ? algebra::EmptyAttrs() : v.AsPooledAttrs();
  };
  // The attribute-by-attribute forms the id sets replaced.
  const auto subset = [](const AttrList& x, const AttrList& y) {
    for (const Attr& a : x) {
      if (!algebra::Contains(y, a)) return false;
    }
    return true;
  };
  const auto overlaps = [](const AttrList& x, const AttrList& y) {
    for (const Attr& a : x) {
      if (algebra::Contains(y, a)) return true;
    }
    return false;
  };
  const auto get = [](common::Result<Value> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : Value::Null();
  };

  for (const Value& pv : preds) {
    const PredicateRef p = pred_of(pv);
    const AttrList& refs = p->ReferencedAttrs()->attrs;
    for (const Value& xv : lists) {
      const PooledAttrs x = pooled(xv);
      const std::string where = p->ToString() + " / " + xv.ToString();
      const bool only = get(native::refers_only(&cat, pv, xv)).AsBool();
      EXPECT_EQ(only, opt::hand::RefersOnly(p, x)) << where;
      EXPECT_EQ(only, subset(refs, x->attrs)) << where;
      for (const bool over : {true, false}) {
        const Value n = get(over ? native::conj_over(&cat, pv, xv)
                                 : native::conj_not_over(&cat, pv, xv));
        EXPECT_TRUE(algebra::PredEquals(n.AsPred(),
                                        opt::hand::ConjOver(p, x, over)))
            << where;
      }
      const Value side = get(native::side_join_attrs(&cat, pv, xv));
      EXPECT_EQ(side.AsAttrs(), opt::hand::SideJoinAttrs(p, x)) << where;
      for (const Value& yv : lists) {
        const PooledAttrs y = pooled(yv);
        const std::string pair = where + " / " + yv.ToString();
        const bool both = get(native::refers_both(&cat, pv, xv, yv)).AsBool();
        EXPECT_EQ(both, opt::hand::RefersBoth(p, x, y)) << pair;
        EXPECT_EQ(both, overlaps(refs, x->attrs) && overlaps(refs, y->attrs))
            << pair;
        const bool ref = get(native::is_ref_join(&cat, pv, xv, yv)).AsBool();
        EXPECT_EQ(ref, opt::hand::IsRefJoin(p, x, y, cat)) << pair;
        // The unnest rules' form: refers_only over attrs_minus.
        const Value minus = get(native::attrs_minus(&cat, xv, yv));
        const bool outside =
            get(native::refers_only(&cat, pv, minus)).AsBool();
        EXPECT_EQ(outside, opt::hand::RefersOnly(p, x, y)) << pair;
      }
    }
  }
  // Every pair of lists: attrs_subset and attrs_minus as the hand-coded
  // rules and the compares answer.
  for (const Value& xv : lists) {
    for (const Value& yv : lists) {
      const std::string pair = xv.ToString() + " / " + yv.ToString();
      const PooledAttrs x = pooled(xv);
      const PooledAttrs y = pooled(yv);
      const bool sub = get(native::attrs_subset(&cat, xv, yv)).AsBool();
      EXPECT_EQ(sub, x->set.SubsetOf(y->set)) << pair;
      EXPECT_EQ(sub, subset(x->attrs, y->attrs)) << pair;
      AttrList kept;
      for (const Attr& a : x->attrs) {
        if (!algebra::Contains(y->attrs, a)) kept.push_back(a);
      }
      EXPECT_EQ(get(native::attrs_minus(&cat, xv, yv)), Value::Attrs(kept))
          << pair;
    }
  }
  // The reference join is found in either orientation, only left to right.
  const Value h1 = lists[2], h2 = lists[3];
  EXPECT_TRUE(get(native::is_ref_join(&cat, preds[2], h1, h2)).AsBool());
  EXPECT_TRUE(get(native::is_ref_join(&cat, preds[3], h1, h2)).AsBool());
  EXPECT_FALSE(get(native::is_ref_join(&cat, preds[2], h2, h1)).AsBool());
}

}  // namespace
}  // namespace prairie
