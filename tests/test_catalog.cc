// Unit tests for the catalog: stored files, indices, statistics and
// selectivity estimation.

#include <gtest/gtest.h>

#include "catalog/catalog.h"

namespace prairie::catalog {
namespace {

using algebra::Attr;
using algebra::CmpOp;
using algebra::Predicate;
using algebra::PredicateRef;
using algebra::Scalar;
using algebra::Term;

StoredFile MakeEmp() {
  std::vector<AttributeDef> attrs;
  attrs.push_back({"oid", algebra::ValueType::kInt, 1000, "", false, 1.0});
  attrs.push_back({"dept", algebra::ValueType::kInt, 20, "", false, 1.0});
  attrs.push_back({"mgr", algebra::ValueType::kInt, 1000, "Emp", false, 1.0});
  attrs.push_back({"kids", algebra::ValueType::kInt, 50, "", true, 2.5});
  StoredFile f("Emp", std::move(attrs), 1000, 64);
  f.AddIndex(IndexDef{"dept", IndexDef::Kind::kBtree});
  return f;
}

TEST(StoredFile, AttributeLookup) {
  StoredFile f = MakeEmp();
  EXPECT_NE(f.FindAttr("dept"), nullptr);
  EXPECT_EQ(f.FindAttr("nope"), nullptr);
  EXPECT_FALSE(f.RequireAttr("nope").ok());
  EXPECT_TRUE(f.FindAttr("mgr")->is_reference());
  EXPECT_TRUE(f.FindAttr("kids")->set_valued);
}

TEST(StoredFile, Indexes) {
  StoredFile f = MakeEmp();
  EXPECT_TRUE(f.HasIndexOn("dept"));
  EXPECT_FALSE(f.HasIndexOn("oid"));
  ASSERT_NE(f.FindIndexOn("dept"), nullptr);
  EXPECT_EQ(f.FindIndexOn("dept")->kind, IndexDef::Kind::kBtree);
}

TEST(StoredFile, QualifiedAttrs) {
  StoredFile f = MakeEmp();
  algebra::AttrList attrs = f.QualifiedAttrs();
  ASSERT_EQ(attrs.size(), 4u);
  EXPECT_EQ(attrs[0].ToString(), "Emp.oid");
  EXPECT_EQ(attrs[1].cls, "Emp");
}

TEST(StoredFile, PooledQualifiedAttrsIsInternedOnce) {
  const StoredFile f = MakeEmp();
  const algebra::PooledAttrs first = f.PooledQualifiedAttrs();
  EXPECT_EQ(first->attrs, f.QualifiedAttrs());
  EXPECT_EQ(f.PooledQualifiedAttrs(), first);  // Repeats: the same list.
  EXPECT_EQ(algebra::InternAttrs(f.QualifiedAttrs()), first);
  // A copy carries the published list; a file built apart finds it pooled.
  const StoredFile copy = f;
  EXPECT_EQ(copy.PooledQualifiedAttrs(), first);
  EXPECT_EQ(MakeEmp().PooledQualifiedAttrs(), first);
}

TEST(Catalog, AddFindRequire) {
  Catalog cat;
  ASSERT_TRUE(cat.AddFile(MakeEmp()).ok());
  EXPECT_EQ(cat.AddFile(MakeEmp()).code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_NE(cat.Find("Emp"), nullptr);
  EXPECT_EQ(cat.Find("Dept"), nullptr);
  EXPECT_FALSE(cat.Require("Dept").ok());
  EXPECT_EQ(cat.FileNames(), std::vector<std::string>{"Emp"});
}

TEST(Catalog, StatsQueries) {
  Catalog cat;
  ASSERT_TRUE(cat.AddFile(MakeEmp()).ok());
  EXPECT_EQ(cat.DistinctValues(Attr{"Emp", "dept"}), 20);
  EXPECT_EQ(cat.DistinctValues(Attr{"Emp", "nope"}), 100);  // Default.
  EXPECT_EQ(cat.DistinctValues(Attr{"Nope", "x"}), 100);
  EXPECT_TRUE(cat.HasIndexOn(Attr{"Emp", "dept"}));
  EXPECT_FALSE(cat.HasIndexOn(Attr{"Emp", "oid"}));
}

class SelectivityTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(cat_.AddFile(MakeEmp()).ok()); }
  Catalog cat_;
};

TEST_F(SelectivityTest, NullAndConstants) {
  EXPECT_DOUBLE_EQ(EstimateSelectivity(nullptr, cat_), 1.0);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Predicate::True(), cat_), 1.0);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Predicate::False(), cat_), 0.0);
}

TEST_F(SelectivityTest, EqualityUsesDistinctCounts) {
  PredicateRef p = Predicate::EqConst(Attr{"Emp", "dept"}, Scalar::Int(3));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(p, cat_), 1.0 / 20);
}

TEST_F(SelectivityTest, EquiJoinUsesMaxDistinct) {
  PredicateRef p = Predicate::EqAttrs(Attr{"Emp", "dept"},
                                      Attr{"Emp", "oid"});
  EXPECT_DOUBLE_EQ(EstimateSelectivity(p, cat_), 1.0 / 1000);
}

TEST_F(SelectivityTest, RangeIsOneThird) {
  PredicateRef p = Predicate::Cmp(CmpOp::kLt,
                                  Term::MakeAttr(Attr{"Emp", "dept"}),
                                  Term::MakeConst(Scalar::Int(5)));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(p, cat_), 1.0 / 3);
}

TEST_F(SelectivityTest, NotEqualIsComplement) {
  PredicateRef p = Predicate::Cmp(CmpOp::kNe,
                                  Term::MakeAttr(Attr{"Emp", "dept"}),
                                  Term::MakeConst(Scalar::Int(5)));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(p, cat_), 1.0 - 1.0 / 20);
}

TEST_F(SelectivityTest, ConjunctionMultiplies) {
  PredicateRef a = Predicate::EqConst(Attr{"Emp", "dept"}, Scalar::Int(1));
  PredicateRef b = Predicate::EqConst(Attr{"Emp", "oid"}, Scalar::Int(2));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Predicate::And({a, b}), cat_),
                   (1.0 / 20) * (1.0 / 1000));
}

TEST_F(SelectivityTest, DisjunctionInclusionExclusion) {
  PredicateRef a = Predicate::EqConst(Attr{"Emp", "dept"}, Scalar::Int(1));
  double s = 1.0 / 20;
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Predicate::Or({a, a}), cat_),
                   1.0 - (1.0 - s) * (1.0 - s));
}

TEST_F(SelectivityTest, NotIsComplement) {
  PredicateRef a = Predicate::EqConst(Attr{"Emp", "dept"}, Scalar::Int(1));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Predicate::Not(a), cat_),
                   1.0 - 1.0 / 20);
}

}  // namespace
}  // namespace prairie::catalog
