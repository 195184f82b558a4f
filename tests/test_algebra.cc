// Unit tests for the algebra module: values, sort specs, predicates,
// property schemas, descriptors, the operation registry and expression
// trees.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "algebra/descriptor_store.h"
#include "algebra/expr.h"
#include "algebra/pattern.h"
#include "algebra/predicate.h"
#include "algebra/property.h"
#include "algebra/value.h"
#include "common/rng.h"

namespace prairie::algebra {
namespace {

Attr A(const std::string& cls, const std::string& name) {
  return Attr{cls, name};
}

/// A random attribute from a pool of twelve (three classes x four names),
/// small enough that random lists overlap and repeat.
Attr RandomAttr(common::Rng& rng) {
  std::string cls = "C" + std::to_string(rng.Uniform(1, 3));
  std::string name(1, static_cast<char>('a' + rng.Uniform(0, 3)));
  return Attr{std::move(cls), std::move(name)};
}

/// Attribute-set tests as they were before lists carried id sets:
/// pairwise attribute compares.
bool ReferenceIsSubset(const AttrList& subset, const AttrList& superset) {
  for (const Attr& attr : subset) {
    if (!Contains(superset, attr)) return false;
  }
  return true;
}

bool ReferenceOverlaps(const AttrList& a, const AttrList& b) {
  for (const Attr& attr : a) {
    if (Contains(b, attr)) return true;
  }
  return false;
}

/// The id the attribute pool gives `attr`.
AttrId IdOf(const Attr& attr) { return InternAttrs({attr})->ids[0]; }

/// The union UnionAttrs computed before it gained its merge path: copy
/// `a`, append what `b` adds, sort.
AttrList ReferenceUnion(const AttrList& a, const AttrList& b) {
  AttrList out = a;
  for (const Attr& attr : b) {
    if (!Contains(out, attr)) out.push_back(attr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
  EXPECT_EQ(Value::Int(3).AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_EQ(Value::Attrs({A("C", "a")}).AsAttrs().size(), 1u);
}

TEST(Value, ToRealCoercion) {
  EXPECT_DOUBLE_EQ(*Value::Int(4).ToReal(), 4.0);
  EXPECT_DOUBLE_EQ(*Value::Real(4.5).ToReal(), 4.5);
  EXPECT_FALSE(Value::Str("x").ToReal().ok());
  EXPECT_FALSE(Value::Null().ToReal().ok());
}

TEST(Value, ToBoolSemantics) {
  EXPECT_FALSE(*Value::Null().ToBool());
  EXPECT_TRUE(*Value::Bool(true).ToBool());
  EXPECT_TRUE(*Value::Int(1).ToBool());
  EXPECT_FALSE(*Value::Int(0).ToBool());
  EXPECT_FALSE(Value::Attrs({}).ToBool().ok());
}

TEST(Value, EqualityAndHash) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Real(1.0));  // Different types.
  EXPECT_EQ(Value::Int(1).Hash(), Value::Int(1).Hash());
  Value p1 = Value::Pred(Predicate::EqAttrs(A("C", "a"), A("D", "b")));
  Value p2 = Value::Pred(Predicate::EqAttrs(A("C", "a"), A("D", "b")));
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.Hash(), p2.Hash());
}

TEST(Value, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Str("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value::Sort(SortSpec::DontCare()).ToString(), "DONT_CARE");
}

// ---------------------------------------------------------------------------
// Attribute lists
// ---------------------------------------------------------------------------

TEST(AttrList, UnionDedupsAndSorts) {
  AttrList u = UnionAttrs({A("C2", "x"), A("C1", "a")},
                          {A("C1", "a"), A("C1", "b")});
  ASSERT_EQ(u.size(), 3u);
  // Canonical (sorted) order regardless of input order.
  EXPECT_EQ(u[0], A("C1", "a"));
  EXPECT_EQ(u[1], A("C1", "b"));
  EXPECT_EQ(u[2], A("C2", "x"));
  AttrList v = UnionAttrs({A("C1", "b"), A("C1", "a")}, {A("C2", "x")});
  EXPECT_EQ(u, v);
}

TEST(AttrList, SubsetAndContains) {
  const AttrSet& big = InternAttrs({A("C", "a"), A("C", "b")})->set;
  EXPECT_TRUE(InternAttrs({A("C", "a")})->set.SubsetOf(big));
  EXPECT_TRUE(EmptyAttrs()->set.SubsetOf(big));
  EXPECT_FALSE(InternAttrs({A("C", "z")})->set.SubsetOf(big));
  EXPECT_TRUE(big.Contains(IdOf(A("C", "b"))));
  EXPECT_FALSE(big.Contains(IdOf(A("C", "z"))));
  EXPECT_TRUE(Contains({A("C", "a"), A("C", "b")}, A("C", "b")));
}

TEST(AttrList, UnionMatchesCopyAndSortOnRandomLists) {
  // Shapes: 0 strictly sorted (the merge path), 1 sorted with repeats,
  // 2 as drawn (unsorted, repeats), 3 strictly descending. Lengths 0..6
  // include empty lists.
  const auto draw = [](common::Rng& rng, int shape) {
    AttrList out;
    const int64_t n = rng.Uniform(0, 6);
    for (int64_t i = 0; i < n; ++i) out.push_back(RandomAttr(rng));
    if (shape != 2) std::sort(out.begin(), out.end());
    if (shape == 0 || shape == 3) {
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    if (shape == 3) std::reverse(out.begin(), out.end());
    return out;
  };
  common::Rng rng(22);
  for (int i = 0; i < 4000; ++i) {
    const AttrList a = draw(rng, i % 4);
    const AttrList b = draw(rng, (i / 4) % 4);
    ASSERT_EQ(UnionAttrs(a, b), ReferenceUnion(a, b)) << "case " << i;
    // The pooled, memoized union over the same operands.
    const Value u = UnionAttrs(Value::Attrs(a), Value::Attrs(b));
    ASSERT_EQ(u, Value::Attrs(ReferenceUnion(a, b))) << "case " << i;
    // The pooled id sets answer as the pairwise compares do, with the
    // pooled empty list (what a null Value reads as) on either side.
    const AttrSet& x = InternAttrs(a)->set;
    const AttrSet& y = InternAttrs(b)->set;
    const AttrSet& none = EmptyAttrs()->set;
    ASSERT_EQ(x.SubsetOf(y), ReferenceIsSubset(a, b)) << "case " << i;
    ASSERT_EQ(y.SubsetOf(x), ReferenceIsSubset(b, a)) << "case " << i;
    ASSERT_EQ(x.Overlaps(y), ReferenceOverlaps(a, b)) << "case " << i;
    ASSERT_EQ(y.Overlaps(x), ReferenceOverlaps(a, b)) << "case " << i;
    ASSERT_TRUE(none.SubsetOf(x)) << "case " << i;
    ASSERT_EQ(x.SubsetOf(none), a.empty()) << "case " << i;
    ASSERT_FALSE(x.Overlaps(none)) << "case " << i;
    for (const Attr& attr : b) {
      ASSERT_EQ(x.Contains(IdOf(attr)), Contains(a, attr)) << "case " << i;
    }
  }
}

TEST(AttrList, IdsFollowTheListAndSetsTheListLength) {
  // Ten thousand attributes no other test names take ids first.
  AttrList many;
  for (int i = 0; i < 10000; ++i) {
    many.push_back(A("Many", "x" + std::to_string(i)));
  }
  const PooledAttrs before = InternAttrs(many);
  ASSERT_EQ(before->ids.size(), 10000u);
  const AttrList late{A("Late", "c"), A("Late", "a"), A("Late", "c")};
  const PooledAttrs pooled = InternAttrs(late);
  ASSERT_EQ(pooled->ids.size(), late.size());
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT_GE(pooled->ids[i], 10000u);
    EXPECT_EQ(pooled->ids[i], IdOf(late[i]));
    EXPECT_TRUE(pooled->set.Contains(pooled->ids[i]));
  }
  EXPECT_EQ(pooled->ids[0], pooled->ids[2]);  // A repeat keeps its id.
  // The set holds a word per member at most, not one per 64 ids handed out.
  EXPECT_LE(pooled->set.word_count(), late.size());
  EXPECT_EQ(InternAttrs({A("Late", "a")})->set.word_count(), 1u);
  EXPECT_EQ(EmptyAttrs()->set.word_count(), 0u);
  EXPECT_FALSE(pooled->set.Contains(before->ids[0]));
  EXPECT_FALSE(pooled->set.Overlaps(before->set));
  EXPECT_TRUE(InternAttrs({A("Late", "a")})->set.SubsetOf(pooled->set));
  EXPECT_FALSE(pooled->set.SubsetOf(before->set));
}

TEST(AttrList, EqualListsBuiltApartSharePooledPayload) {
  AttrList built{A("C1", "a")};
  built.push_back(A("C2", "b"));
  const Value x = Value::Attrs({A("C1", "a"), A("C2", "b")});
  const Value y = Value::Attrs(built);
  EXPECT_EQ(&x.AsAttrs(), &y.AsAttrs());
  EXPECT_EQ(x, y);
  EXPECT_EQ(x.Hash(), y.Hash());
  // Order matters: the pool keys on the list as given.
  const Value z = Value::Attrs({A("C2", "b"), A("C1", "a")});
  EXPECT_NE(&x.AsAttrs(), &z.AsAttrs());
  EXPECT_NE(x, z);
}

TEST(AttrList, PooledUnionOfNamedOperands) {
  const AttrList sorted{A("C1", "a"), A("C1", "b")};
  const AttrList unsorted{A("C2", "x"), A("C1", "b")};
  const AttrList repeated{A("C1", "a"), A("C1", "a")};
  const AttrList empty;
  for (const AttrList* a : {&sorted, &unsorted, &repeated, &empty}) {
    for (const AttrList* b : {&sorted, &unsorted, &repeated, &empty}) {
      EXPECT_EQ(UnionAttrs(Value::Attrs(*a), Value::Attrs(*b)).AsAttrs(),
                ReferenceUnion(*a, *b));
    }
    // A null operand reads as the pooled empty list.
    EXPECT_EQ(UnionAttrs(Value::Attrs(*a), Value::Null()),
              UnionAttrs(Value::Attrs(*a), Value::Attrs(empty)));
    EXPECT_EQ(UnionAttrs(Value::Null(), Value::Attrs(*a)).AsAttrs(),
              ReferenceUnion(empty, *a));
  }
  EXPECT_EQ(UnionAttrs(Value::Null(), Value::Null()), Value::Attrs({}));
}

TEST(AttrList, PooledUnionRepeatsReturnTheSamePayload) {
  const Value a = Value::Attrs({A("C2", "x"), A("C1", "a")});
  const Value b = Value::Attrs({A("C1", "b")});
  const Value first = UnionAttrs(a, b);
  const Value again = UnionAttrs(a, b);
  EXPECT_EQ(&first.AsAttrs(), &again.AsAttrs());
  // The same operands built apart hit the same memo entry.
  const Value c = UnionAttrs(Value::Attrs({A("C2", "x"), A("C1", "a")}),
                             Value::Attrs({A("C1", "b")}));
  EXPECT_EQ(&first.AsAttrs(), &c.AsAttrs());
}

TEST(AttrList, PooledUnionKeepsOperandOrderWhenLeftRepeats) {
  // A repeat inside the left operand is kept, so the union is not
  // symmetric and the memo must key on the ordered pair.
  const Value a = Value::Attrs({A("C1", "a"), A("C1", "a")});
  const Value b = Value::Attrs({A("C1", "b")});
  const Value ab = UnionAttrs(a, b);
  const Value ba = UnionAttrs(b, a);
  EXPECT_EQ(ab.AsAttrs(),
            (AttrList{A("C1", "a"), A("C1", "a"), A("C1", "b")}));
  EXPECT_EQ(ba.AsAttrs(), (AttrList{A("C1", "a"), A("C1", "b")}));
  EXPECT_NE(ab, ba);
  EXPECT_EQ(UnionAttrs(a, b), ab);
  EXPECT_EQ(UnionAttrs(b, a), ba);
}

// ---------------------------------------------------------------------------
// Sort specs
// ---------------------------------------------------------------------------

TEST(SortSpec, DontCareSatisfiedByAnything) {
  SortSpec any = SortSpec::DontCare();
  EXPECT_TRUE(SortSpec::On(A("C", "a")).Satisfies(any));
  EXPECT_TRUE(any.Satisfies(any));
}

TEST(SortSpec, PrefixSatisfaction) {
  SortSpec ab;
  ab.keys = {{A("C", "a"), true}, {A("C", "b"), true}};
  SortSpec a = SortSpec::On(A("C", "a"));
  EXPECT_TRUE(ab.Satisfies(a));     // (a,b)-sorted satisfies a-sorted.
  EXPECT_FALSE(a.Satisfies(ab));    // a-sorted does not satisfy (a,b).
  SortSpec a_desc = SortSpec::On(A("C", "a"), /*ascending=*/false);
  EXPECT_FALSE(a.Satisfies(a_desc));  // Direction matters.
}

TEST(SortSpec, DontCareIsNotSatisfiedByNothing) {
  SortSpec a = SortSpec::On(A("C", "a"));
  EXPECT_FALSE(SortSpec::DontCare().Satisfies(a));
}

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

TEST(Predicate, TrueFalseSingletons) {
  EXPECT_TRUE(Predicate::True()->is_true());
  EXPECT_TRUE(Predicate::False()->is_false());
  EXPECT_TRUE(Predicate::And({})->is_true());
}

TEST(Predicate, AndFlattensAndDropsTrue) {
  PredicateRef p1 = Predicate::EqConst(A("C", "a"), Scalar::Int(1));
  PredicateRef p2 = Predicate::EqConst(A("C", "b"), Scalar::Int(2));
  PredicateRef nested =
      Predicate::And({Predicate::And({p1, Predicate::True()}), p2});
  EXPECT_EQ(algebra::Conjuncts(nested).size(), 2u);
}

TEST(Predicate, AndIsOrderCanonical) {
  PredicateRef p1 = Predicate::EqConst(A("C", "a"), Scalar::Int(1));
  PredicateRef p2 = Predicate::EqAttrs(A("C", "b"), A("D", "c"));
  PredicateRef ab = Predicate::And({p1, p2});
  PredicateRef ba = Predicate::And({p2, p1});
  EXPECT_TRUE(ab->Equals(*ba));
  EXPECT_EQ(ab->Hash(), ba->Hash());
}

TEST(Predicate, ReferencedAttrsOfAnAnd) {
  PredicateRef p = Predicate::And(
      {Predicate::EqAttrs(A("C1", "a"), A("C2", "b")),
       Predicate::EqConst(A("C1", "c"), Scalar::Int(5))});
  const AttrList& attrs = p->ReferencedAttrs()->attrs;
  EXPECT_EQ(attrs.size(), 3u);
}

TEST(Predicate, IsEquiJoin) {
  EXPECT_TRUE(Predicate::EqAttrs(A("C", "a"), A("D", "b"))->IsEquiJoin());
  EXPECT_FALSE(
      Predicate::EqConst(A("C", "a"), Scalar::Int(1))->IsEquiJoin());
  EXPECT_FALSE(Predicate::Cmp(CmpOp::kLt, Term::MakeAttr(A("C", "a")),
                              Term::MakeAttr(A("D", "b")))
                   ->IsEquiJoin());
}

TEST(Predicate, NotAndOrStructure) {
  PredicateRef p = Predicate::Not(
      Predicate::Or({Predicate::True(), Predicate::False()}));
  EXPECT_EQ(p->kind(), Predicate::Kind::kNot);
  EXPECT_EQ(p->ToString(), "NOT ((TRUE) OR (FALSE))");
}

TEST(Predicate, NullRefsTreatedAsTrue) {
  EXPECT_TRUE(PredEquals(nullptr, Predicate::True()));
  EXPECT_TRUE(PredAnd(nullptr, nullptr)->is_true());
  PredicateRef p = Predicate::EqConst(A("C", "a"), Scalar::Int(1));
  EXPECT_TRUE(PredAnd(p, nullptr)->Equals(*p));
}

TEST(Predicate, ConjunctsBorrowTheTreeWithoutCloning) {
  const PredicateRef p1 = Predicate::EqConst(A("C", "a"), Scalar::Int(1));
  const PredicateRef p2 = Predicate::EqAttrs(A("C", "b"), A("D", "c"));
  const PredicateRef p3 = Predicate::Or({p1, p2});
  const PredicateRef conj = Predicate::And({p1, p2, p3});
  const std::span<const PredicateRef> cs = Conjuncts(conj);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs.data(), conj->children().data());  // The AND's own children.
  for (const PredicateRef& leaf : {p1, p2, p3}) {
    EXPECT_EQ(std::count(cs.begin(), cs.end(), leaf), 1) << leaf->ToString();
  }
  // Any other predicate is its own single conjunct: the node itself.
  const PredicateRef negated = Predicate::Not(p1);
  const PredicateRef no = Predicate::False();
  for (const PredicateRef* node : {&p1, &p3, &negated, &no}) {
    const std::span<const PredicateRef> own = Conjuncts(*node);
    ASSERT_EQ(own.size(), 1u);
    EXPECT_EQ(own[0].get(), node->get());
  }
  const PredicateRef yes = Predicate::True();
  const PredicateRef null;
  EXPECT_TRUE(Conjuncts(yes).empty());
  EXPECT_TRUE(Conjuncts(null).empty());
}

/// ReferencedAttrs as computed before nodes cached it.
AttrList ReferenceReferencedAttrs(const Predicate& p) {
  AttrList out;
  switch (p.kind()) {
    case Predicate::Kind::kCmp:
      if (p.left().is_attr() && !Contains(out, p.left().attr)) {
        out.push_back(p.left().attr);
      }
      if (p.right().is_attr() && !Contains(out, p.right().attr)) {
        out.push_back(p.right().attr);
      }
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot:
      for (const PredicateRef& c : p.children()) {
        out = ReferenceUnion(out, ReferenceReferencedAttrs(*c));
      }
      break;
    default:
      break;
  }
  return out;
}

/// A random predicate tree of comparisons (attribute vs. attribute or
/// constant, either side) joined by AND, OR and NOT.
PredicateRef RandomPredicate(common::Rng& rng, int depth) {
  const int64_t kind = depth <= 0 ? 0 : rng.Uniform(0, 3);
  if (kind == 0) {
    const int64_t form = rng.Uniform(0, 2);
    Term l = form == 2 ? Term::MakeConst(Scalar::Int(rng.Uniform(0, 9)))
                       : Term::MakeAttr(RandomAttr(rng));
    Term r = form == 1 ? Term::MakeConst(Scalar::Int(rng.Uniform(0, 9)))
                       : Term::MakeAttr(RandomAttr(rng));
    return Predicate::Cmp(form == 0 ? CmpOp::kEq : CmpOp::kLt, std::move(l),
                          std::move(r));
  }
  if (kind == 3) return Predicate::Not(RandomPredicate(rng, depth - 1));
  std::vector<PredicateRef> kids;
  const int64_t n = rng.Uniform(1, 3);
  for (int64_t i = 0; i < n; ++i) {
    kids.push_back(RandomPredicate(rng, depth - 1));
  }
  return kind == 1 ? Predicate::And(std::move(kids))
                   : Predicate::Or(std::move(kids));
}

TEST(Predicate, ReferencedAttrsKeepsContentsAndOrder) {
  // A comparison lists its sides in order, unsorted; composites sort.
  const PredicateRef cmp = Predicate::EqAttrs(A("C2", "b"), A("C1", "a"));
  EXPECT_EQ(cmp->ReferencedAttrs()->attrs,
            (AttrList{A("C2", "b"), A("C1", "a")}));
  EXPECT_EQ(Predicate::Not(cmp)->ReferencedAttrs()->attrs,
            (AttrList{A("C1", "a"), A("C2", "b")}));
  common::Rng rng(2026);
  for (int i = 0; i < 500; ++i) {
    const PredicateRef p = RandomPredicate(rng, 3);
    const PooledAttrs first = p->ReferencedAttrs();
    EXPECT_EQ(first->attrs, ReferenceReferencedAttrs(*p)) << p->ToString();
    EXPECT_EQ(p->ReferencedAttrs(), first);  // Computed once, cached.
  }
}

TEST(Predicate, ConjunctionReferencesTheUnionOfItsConjunctsLists) {
  common::Rng rng(2027);
  int conjunctions = 0;
  for (int i = 0; i < 500; ++i) {
    const PredicateRef p = RandomPredicate(rng, 3);
    // The union of the conjuncts' lists, each built apart from strings.
    Value acc = Value::Null();
    for (const PredicateRef& c : Conjuncts(p)) {
      acc = UnionAttrs(acc, Value::Attrs(ReferenceReferencedAttrs(*c)));
    }
    if (p->kind() != Predicate::Kind::kAnd) continue;
    ++conjunctions;
    EXPECT_EQ(p->ReferencedAttrs(), acc.AsPooledAttrs()) << p->ToString();
  }
  EXPECT_GT(conjunctions, 50);
}

// ---------------------------------------------------------------------------
// Property schema / descriptors
// ---------------------------------------------------------------------------

TEST(PropertySchema, AddAndLookup) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("cost", ValueType::kReal, /*is_cost=*/true).ok());
  ASSERT_TRUE(s.Add("order", ValueType::kSort).ok());
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(*s.Find("cost"), 0);
  EXPECT_EQ(*s.Find("order"), 1);
  EXPECT_FALSE(s.Find("nope").has_value());
  EXPECT_FALSE(s.Require("nope").ok());
  EXPECT_TRUE(s.decl(0).is_cost);
}

TEST(PropertySchema, RejectsDuplicates) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("x", ValueType::kInt).ok());
  EXPECT_EQ(s.Add("x", ValueType::kReal).code(),
            common::StatusCode::kAlreadyExists);
}

TEST(Descriptor, SetGetTyped) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("n", ValueType::kReal).ok());
  ASSERT_TRUE(s.Add("name", ValueType::kString).ok());
  Descriptor d(&s);
  ASSERT_TRUE(d.Set("n", Value::Real(4.0)).ok());
  EXPECT_DOUBLE_EQ(d.Get("n")->AsReal(), 4.0);
  // Type mismatch rejected.
  EXPECT_FALSE(d.Set("name", Value::Int(1)).ok());
  // Int widens into a real-typed property.
  ASSERT_TRUE(d.Set("n", Value::Int(7)).ok());
  EXPECT_DOUBLE_EQ(d.Get("n")->AsReal(), 7.0);
  // Null always accepted (unsets).
  ASSERT_TRUE(d.Set("name", Value::Null()).ok());
}

TEST(Descriptor, EqualityAndHash) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("n", ValueType::kInt).ok());
  Descriptor a(&s), b(&s);
  EXPECT_EQ(a, b);
  ASSERT_TRUE(a.Set("n", Value::Int(1)).ok());
  EXPECT_NE(a, b);
  ASSERT_TRUE(b.Set("n", Value::Int(1)).ok());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(Descriptor, ToStringSkipsUnset) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  ASSERT_TRUE(s.Add("b", ValueType::kInt).ok());
  Descriptor d(&s);
  ASSERT_TRUE(d.Set("b", Value::Int(2)).ok());
  EXPECT_EQ(d.ToString(), "{b: 2}");
}

TEST(PropertySlice, ProjectAndEquality) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  ASSERT_TRUE(s.Add("b", ValueType::kInt).ok());
  Descriptor d1(&s), d2(&s);
  ASSERT_TRUE(d1.Set("a", Value::Int(1)).ok());
  ASSERT_TRUE(d1.Set("b", Value::Int(2)).ok());
  ASSERT_TRUE(d2.Set("a", Value::Int(1)).ok());
  ASSERT_TRUE(d2.Set("b", Value::Int(99)).ok());
  PropertySlice only_a{{0}};
  EXPECT_TRUE(only_a.EqualOn(d1, d2));
  EXPECT_EQ(only_a.HashOf(d1), only_a.HashOf(d2));
  Descriptor proj = only_a.Project(d1);
  EXPECT_EQ(proj.Get(0).AsInt(), 1);
  EXPECT_TRUE(proj.Get(1).is_null());
}

// ---------------------------------------------------------------------------
// Descriptor store (hash-consing)
// ---------------------------------------------------------------------------

TEST(DescriptorStore, IdEqualityIsValueEquality) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  ASSERT_TRUE(s.Add("name", ValueType::kString).ok());
  DescriptorStore store(&s);
  Descriptor d1(&s), d2(&s), d3(&s);
  ASSERT_TRUE(d1.Set("a", Value::Int(1)).ok());
  ASSERT_TRUE(d2.Set("a", Value::Int(1)).ok());
  ASSERT_TRUE(d3.Set("a", Value::Int(2)).ok());
  DescriptorId i1 = store.Intern(d1);
  DescriptorId i2 = store.Intern(d2);
  DescriptorId i3 = store.Intern(d3);
  EXPECT_EQ(i1, i2);
  EXPECT_NE(i1, i3);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Get(i1), d1);
  EXPECT_EQ(store.Get(i3), d3);
}

TEST(DescriptorStore, CachedHashMatchesDescriptorHash) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  DescriptorStore store(&s);
  Descriptor d(&s);
  ASSERT_TRUE(d.Set("a", Value::Int(7)).ok());
  DescriptorId id = store.Intern(d);
  EXPECT_EQ(store.HashOf(id), d.Hash());
}

TEST(DescriptorStore, HitCountersTrackLookups) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  DescriptorStore store(&s);
  Descriptor d(&s);
  ASSERT_TRUE(d.Set("a", Value::Int(1)).ok());
  (void)store.Intern(d);  // Miss.
  (void)store.Intern(d);  // Hit.
  (void)store.Intern(d);  // Hit.
  EXPECT_EQ(store.lookups(), 3u);
  EXPECT_EQ(store.hits(), 2u);
  EXPECT_NEAR(store.HitRate(), 2.0 / 3.0, 1e-12);
}

TEST(DescriptorStore, ReferencesStayStableAcrossGrowth) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  DescriptorStore store(&s);
  Descriptor first(&s);
  ASSERT_TRUE(first.Set("a", Value::Int(-1)).ok());
  DescriptorId id0 = store.Intern(first);
  const Descriptor* p0 = &store.Get(id0);
  for (int i = 0; i < 2000; ++i) {
    Descriptor d(&s);
    ASSERT_TRUE(d.Set("a", Value::Int(i)).ok());
    (void)store.Intern(std::move(d));
  }
  EXPECT_EQ(p0, &store.Get(id0));
  EXPECT_EQ(store.Get(id0).Get(0).AsInt(), -1);
}

TEST(DescriptorStore, ProjectedInterningDedupesOnSlice) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  ASSERT_TRUE(s.Add("b", ValueType::kInt).ok());
  DescriptorStore store(&s);
  SliceId slice = store.RegisterSlice(PropertySlice{{0}});
  Descriptor d1(&s), d2(&s);
  ASSERT_TRUE(d1.Set("a", Value::Int(1)).ok());
  ASSERT_TRUE(d1.Set("b", Value::Int(2)).ok());
  ASSERT_TRUE(d2.Set("a", Value::Int(1)).ok());
  ASSERT_TRUE(d2.Set("b", Value::Int(99)).ok());
  // Identical on the slice: one interned projection.
  DescriptorId p1 = store.InternProjected(slice, d1);
  DescriptorId p2 = store.InternProjected(slice, d2);
  EXPECT_EQ(p1, p2);
  // The interned projection carries only the sliced annotation.
  EXPECT_EQ(store.Get(p1).Get(0).AsInt(), 1);
  EXPECT_TRUE(store.Get(p1).Get(1).is_null());
  // Differing on the slice: a distinct id.
  Descriptor d3(&s);
  ASSERT_TRUE(d3.Set("a", Value::Int(5)).ok());
  EXPECT_NE(store.InternProjected(slice, d3), p1);
}

TEST(DescriptorStore, ProjectedAndFullInterningShareOneIdSpace) {
  // The id<->value invariant is store-global: interning a projection and
  // then interning an equal descriptor through the full path (or vice
  // versa) must yield the same id.
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  ASSERT_TRUE(s.Add("b", ValueType::kInt).ok());
  DescriptorStore store(&s);
  SliceId slice = store.RegisterSlice(PropertySlice{{0}});
  Descriptor full(&s);
  ASSERT_TRUE(full.Set("a", Value::Int(3)).ok());
  ASSERT_TRUE(full.Set("b", Value::Int(4)).ok());
  DescriptorId projected = store.InternProjected(slice, full);
  Descriptor only_a(&s);
  ASSERT_TRUE(only_a.Set("a", Value::Int(3)).ok());
  EXPECT_EQ(store.Intern(only_a), projected);
}

TEST(DescriptorStore, ProjectMemoizesByInternedId) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  ASSERT_TRUE(s.Add("b", ValueType::kInt).ok());
  DescriptorStore store(&s);
  SliceId slice = store.RegisterSlice(PropertySlice{{0}});
  Descriptor d(&s);
  ASSERT_TRUE(d.Set("a", Value::Int(1)).ok());
  ASSERT_TRUE(d.Set("b", Value::Int(2)).ok());
  DescriptorId full = store.Intern(d);
  DescriptorId p1 = store.Project(slice, full);
  uint64_t lookups_before = store.lookups();
  uint64_t hits_before = store.hits();
  DescriptorId p2 = store.Project(slice, full);
  EXPECT_EQ(p1, p2);
  // The second Project is a memo hit, counted as such.
  EXPECT_EQ(store.lookups(), lookups_before + 1);
  EXPECT_EQ(store.hits(), hits_before + 1);
}

TEST(DescriptorBuilder, BuildsAndFreezes) {
  PropertySchema s;
  ASSERT_TRUE(s.Add("a", ValueType::kInt).ok());
  ASSERT_TRUE(s.Add("name", ValueType::kString).ok());
  DescriptorStore store(&s);
  DescriptorBuilder b(&s);
  b.Set(0, Value::Int(1));
  ASSERT_TRUE(b.SetNamed("name", Value::Str("x")).ok());
  EXPECT_FALSE(b.SetNamed("name", Value::Int(9)).ok());  // Type-checked.
  Descriptor built = std::move(b).Build();
  EXPECT_EQ(built.Get(0).AsInt(), 1);
  EXPECT_EQ(built.Get(1).AsString(), "x");
  // Start a builder from an existing value, tweak, freeze.
  DescriptorBuilder b2(built);
  DescriptorId id = std::move(b2.Set(0, Value::Int(2))).Freeze(&store);
  EXPECT_EQ(store.Get(id).Get(0).AsInt(), 2);
  EXPECT_EQ(store.Get(id).Get(1).AsString(), "x");
  // Freezing an equal rebuild hits the same id.
  DescriptorBuilder b3(&s);
  b3.Set(0, Value::Int(2));
  ASSERT_TRUE(b3.SetNamed("name", Value::Str("x")).ok());
  EXPECT_EQ(std::move(b3).Freeze(&store), id);
}

TEST(Value, StringsAreInterned) {
  // Equal string values share one pooled representation; equality is a
  // pointer comparison fast path but still holds for distinct pools.
  Value a = Value::Str("shared-string-payload");
  Value b = Value::Str("shared-string-payload");
  EXPECT_EQ(a, b);
  EXPECT_EQ(&a.AsString(), &b.AsString());
  EXPECT_NE(a, Value::Str("other"));
}

// ---------------------------------------------------------------------------
// Algebra registry
// ---------------------------------------------------------------------------

TEST(AlgebraRegistry, NullPreRegistered) {
  Algebra a;
  EXPECT_EQ(a.name(a.null_alg()), "Null");
  EXPECT_TRUE(a.is_algorithm(a.null_alg()));
  EXPECT_EQ(a.arity(a.null_alg()), 1);
}

TEST(AlgebraRegistry, RegisterAndLookup) {
  Algebra a;
  auto join = a.RegisterOperator("JOIN", 2);
  ASSERT_TRUE(join.ok());
  auto nl = a.RegisterAlgorithm("Nested_loops", 2);
  ASSERT_TRUE(nl.ok());
  EXPECT_FALSE(a.is_algorithm(*join));
  EXPECT_TRUE(a.is_algorithm(*nl));
  EXPECT_EQ(*a.Find("JOIN"), *join);
  EXPECT_FALSE(a.Require("MISSING").ok());
  EXPECT_EQ(a.Operators().size(), 1u);
  EXPECT_EQ(a.Algorithms().size(), 2u);  // Null + Nested_loops.
}

TEST(AlgebraRegistry, RejectsDuplicatesAndBadArity) {
  Algebra a;
  ASSERT_TRUE(a.RegisterOperator("X", 1).ok());
  EXPECT_FALSE(a.RegisterAlgorithm("X", 1).ok());
  EXPECT_FALSE(a.RegisterOperator("Y", -1).ok());
  EXPECT_FALSE(a.RegisterOperator("Z", 9).ok());
}

// ---------------------------------------------------------------------------
// Expression trees
// ---------------------------------------------------------------------------

class ExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.Add("n", ValueType::kInt).ok());
    join_ = *algebra_.RegisterOperator("JOIN", 2);
    ret_ = *algebra_.RegisterOperator("RET", 1);
    nl_ = *algebra_.RegisterAlgorithm("Nested_loops", 2);
    fs_ = *algebra_.RegisterAlgorithm("File_scan", 1);
  }

  ExprPtr File(const std::string& name) {
    return Expr::MakeFile(name, Descriptor(&schema_));
  }
  ExprPtr Node(OpId op, std::vector<ExprPtr> kids) {
    return Expr::MakeOp(op, std::move(kids), Descriptor(&schema_));
  }

  Algebra algebra_;
  PropertySchema schema_;
  OpId join_, ret_, nl_, fs_;
};

TEST_F(ExprTest, BuildAndPrint) {
  std::vector<ExprPtr> l1, l2, kids;
  l1.push_back(File("R1"));
  l2.push_back(File("R2"));
  kids.push_back(Node(ret_, std::move(l1)));
  kids.push_back(Node(ret_, std::move(l2)));
  ExprPtr tree = Node(join_, std::move(kids));
  EXPECT_EQ(tree->ToString(algebra_), "JOIN(RET(R1), RET(R2))");
  EXPECT_EQ(tree->NodeCount(), 5);
  EXPECT_TRUE(tree->IsLogical(algebra_));
  EXPECT_FALSE(tree->IsAccessPlan(algebra_));
}

TEST_F(ExprTest, AccessPlanDetection) {
  std::vector<ExprPtr> kids;
  kids.push_back(File("R1"));
  kids.push_back(File("R2"));
  ExprPtr plan = Node(nl_, std::move(kids));
  EXPECT_TRUE(plan->IsAccessPlan(algebra_));
  EXPECT_FALSE(plan->IsLogical(algebra_));
}

TEST_F(ExprTest, CloneEqualsAndHash) {
  std::vector<ExprPtr> kids;
  kids.push_back(File("R1"));
  ExprPtr a = Node(ret_, std::move(kids));
  ExprPtr b = a->Clone();
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_EQ(a->Hash(), b->Hash());
  b->mutable_descriptor()->SetUnchecked(0, Value::Int(9));
  EXPECT_FALSE(a->Equals(*b));
}

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

TEST_F(ExprTest, PatternProperties) {
  PatNodePtr pat = PatNode::Op(
      join_, 4,
      [&] {
        std::vector<PatNodePtr> kids;
        kids.push_back(PatNode::Op(join_, 3, [&] {
          std::vector<PatNodePtr> inner;
          inner.push_back(PatNode::Stream(1, 0));
          inner.push_back(PatNode::Stream(2, 1));
          return inner;
        }()));
        kids.push_back(PatNode::Stream(3, 2));
        return kids;
      }());
  EXPECT_EQ(pat->NodeCount(), 5);
  EXPECT_EQ(pat->MaxStreamVar(), 3);
  EXPECT_EQ(pat->MaxDescSlot(), 4);
  EXPECT_EQ(pat->ToString(algebra_),
            "JOIN[D5](JOIN[D4](?1:D1, ?2:D2), ?3:D3)");
  PatNodePtr clone = pat->Clone();
  EXPECT_TRUE(pat->Same(*clone));
  clone->desc_slot = 6;
  EXPECT_FALSE(pat->Same(*clone));
}

}  // namespace
}  // namespace prairie::algebra
