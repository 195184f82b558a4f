// Tests the *generated-code* deployment: at build time, the p2v_emit tool
// translated the shipped Prairie specifications into C++ translation
// units (tests/generated/*.cc in the build tree), which were compiled
// into this binary. The emitted optimizers must behave identically to
// the interpreted Translate() deployment: same rule counts, same plan
// costs, same search-space statistics.

#include <gtest/gtest.h>

#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/relational.h"
#include "p2v/translator.h"
#include "volcano/engine.h"
#include "workload/workload.h"

// Factories defined by the generated translation units.
namespace prairie_generated {
prairie::common::Result<std::shared_ptr<prairie::volcano::RuleSet>>
BuildRelationalEmitted(std::shared_ptr<prairie::core::HelperRegistry>);
prairie::common::Result<std::shared_ptr<prairie::volcano::RuleSet>>
BuildOodbEmitted(std::shared_ptr<prairie::core::HelperRegistry>);
}  // namespace prairie_generated

namespace prairie {
namespace {

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)             \
  auto PRAIRIE_CONCAT(_res_, __LINE__) = (rexpr);    \
  ASSERT_TRUE(PRAIRIE_CONCAT(_res_, __LINE__).ok())  \
      << PRAIRIE_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(PRAIRIE_CONCAT(_res_, __LINE__)).ValueUnsafe();

TEST(Emitted, RelationalBuildsWithExpectedShape) {
  ASSERT_OK_AND_ASSIGN(
      auto rules,
      prairie_generated::BuildRelationalEmitted(opt::StandardHelpers()));
  EXPECT_EQ(rules->trans_rules.size(), 3u);
  EXPECT_EQ(rules->impl_rules.size(), 5u);
  EXPECT_EQ(rules->enforcers.size(), 1u);
  EXPECT_EQ(rules->phys_props.size(), 1u);
}

TEST(Emitted, OodbBuildsWithPaperRuleCounts) {
  ASSERT_OK_AND_ASSIGN(
      auto rules,
      prairie_generated::BuildOodbEmitted(opt::StandardHelpers()));
  EXPECT_EQ(rules->trans_rules.size(), 17u);
  EXPECT_EQ(rules->impl_rules.size(), 9u);
  EXPECT_EQ(rules->enforcers.size(), 1u);
}

class EmittedVsInterpreted
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EmittedVsInterpreted, SamePlansSameSearch) {
  static auto interpreted = [] {
    auto pr = opt::BuildOodbPrairie();
    EXPECT_TRUE(pr.ok());
    auto v = p2v::Translate(*pr, nullptr);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }();
  static auto emitted = [] {
    auto v = prairie_generated::BuildOodbEmitted(opt::StandardHelpers());
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }();

  workload::QuerySpec spec;
  spec.expr = static_cast<workload::ExprKind>(std::get<0>(GetParam()));
  spec.num_joins = std::get<1>(GetParam());
  spec.seed = static_cast<uint64_t>(std::get<2>(GetParam()));
  spec.with_indexes = (std::get<2>(GetParam()) % 2) == 0;

  ASSERT_OK_AND_ASSIGN(workload::Workload wi,
                       workload::MakeWorkload(*interpreted->algebra, spec));
  ASSERT_OK_AND_ASSIGN(workload::Workload we,
                       workload::MakeWorkload(*emitted->algebra, spec));
  volcano::Optimizer oi(interpreted.get(), &wi.catalog);
  volcano::Optimizer oe(emitted.get(), &we.catalog);
  ASSERT_OK_AND_ASSIGN(volcano::Plan pi, oi.Optimize(*wi.query));
  ASSERT_OK_AND_ASSIGN(volcano::Plan pe, oe.Optimize(*we.query));
  EXPECT_NEAR(pi.cost, pe.cost, 1e-9 * std::max(1.0, pi.cost))
      << " interpreted " << pi.root->ToString(*interpreted->algebra)
      << "\n emitted     " << pe.root->ToString(*emitted->algebra);
  const volcano::OptimizerStats& si = oi.stats();
  const volcano::OptimizerStats& se = oe.stats();
  EXPECT_EQ(si.groups, se.groups);
  EXPECT_EQ(si.mexprs, se.mexprs);
  EXPECT_EQ(si.trans_fired, se.trans_fired);
  EXPECT_EQ(si.trans_attempts, se.trans_attempts);
  EXPECT_EQ(si.plans_costed, se.plans_costed);
  // Identical plans, descriptors included.
  const algebra::Algebra& ai = *interpreted->algebra;
  const algebra::Algebra& ae = *emitted->algebra;
  EXPECT_EQ(pi.root->ToExpr(ai)->TreeString(ai),
            pe.root->ToExpr(ae)->TreeString(ae));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EmittedVsInterpreted,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "E" + std::to_string(std::get<0>(info.param)) + "_N" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Emitted, RelationalMatchesInterpretedOnJoins) {
  static auto interpreted = [] {
    auto pr = opt::BuildRelationalPrairie();
    EXPECT_TRUE(pr.ok());
    auto v = p2v::Translate(*pr, nullptr);
    EXPECT_TRUE(v.ok());
    return *v;
  }();
  ASSERT_OK_AND_ASSIGN(
      auto emitted,
      prairie_generated::BuildRelationalEmitted(opt::StandardHelpers()));
  for (int joins = 1; joins <= 5; ++joins) {
    workload::QuerySpec spec;
    spec.expr = workload::ExprKind::kE1;
    spec.num_joins = joins;
    spec.seed = 11;
    ASSERT_OK_AND_ASSIGN(workload::Workload wi,
                         workload::MakeWorkload(*interpreted->algebra, spec));
    ASSERT_OK_AND_ASSIGN(workload::Workload we,
                         workload::MakeWorkload(*emitted->algebra, spec));
    volcano::Optimizer oi(interpreted.get(), &wi.catalog);
    volcano::Optimizer oe(emitted.get(), &we.catalog);
    ASSERT_OK_AND_ASSIGN(volcano::Plan pi, oi.Optimize(*wi.query));
    ASSERT_OK_AND_ASSIGN(volcano::Plan pe, oe.Optimize(*we.query));
    EXPECT_NEAR(pi.cost, pe.cost, 1e-9 * std::max(1.0, pi.cost));
  }
}

}  // namespace
}  // namespace prairie
