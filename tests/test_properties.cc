// Property-based sweeps (parameterized gtest) over randomized workloads:
//
//  P1. Correctness: the optimized access plan's result equals a naive
//      direct evaluation of the logical tree, for every expression
//      template, join count and seed in the sweep.
//  P2. Equivalence: the P2V-generated optimizer and the hand-coded
//      Volcano optimizer find plans of identical cost.
//  P3. Pruning soundness: branch-and-bound pruning never changes the
//      winning cost.
//  P4. Requirements: when a sort order is required, the executed result
//      actually arrives in that order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "exec/builder.h"
#include "optimizers/executors.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/reference.h"
#include "optimizers/relational.h"
#include "optimizers/volcano_hand.h"
#include "p2v/translator.h"
#include "volcano/engine.h"
#include "workload/workload.h"

namespace prairie {
namespace {

using workload::ExprKind;
using workload::QuerySpec;

#define ASSERT_OK(expr)                                \
  do {                                                 \
    ::prairie::common::Status _st = (expr);            \
    ASSERT_TRUE(_st.ok()) << _st.ToString();           \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)             \
  auto PRAIRIE_CONCAT(_res_, __LINE__) = (rexpr);    \
  ASSERT_TRUE(PRAIRIE_CONCAT(_res_, __LINE__).ok())  \
      << PRAIRIE_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(PRAIRIE_CONCAT(_res_, __LINE__)).ValueUnsafe();

/// Shared fixtures (built once; rule sets are immutable during search).
const std::shared_ptr<volcano::RuleSet>& OodbGenerated() {
  static auto rules = [] {
    auto prairie_rules = opt::BuildOodbPrairie();
    EXPECT_TRUE(prairie_rules.ok()) << prairie_rules.status().ToString();
    auto v = p2v::Translate(*prairie_rules, nullptr);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }();
  return rules;
}

const std::shared_ptr<volcano::RuleSet>& OodbHand() {
  static auto rules = [] {
    auto v = opt::BuildOodbVolcano();
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }();
  return rules;
}

const exec::ExecutorRegistry& Executors() {
  static exec::ExecutorRegistry* reg = [] {
    auto* r = new exec::ExecutorRegistry();
    EXPECT_TRUE(opt::RegisterStandardExecutors(r).ok());
    return r;
  }();
  return *reg;
}

/// Reorders result columns into sorted-attribute order so results from
/// plans with different column layouts compare positionally.
std::vector<exec::Row> CanonicalColumns(const std::vector<exec::Row>& rows,
                                        const exec::RowSchema& schema) {
  std::vector<size_t> order(schema.attrs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return schema.attrs[a] < schema.attrs[b];
  });
  std::vector<exec::Row> out;
  out.reserve(rows.size());
  for (const exec::Row& row : rows) {
    exec::Row r;
    r.reserve(order.size());
    for (size_t i : order) r.push_back(row[i]);
    out.push_back(std::move(r));
  }
  return out;
}

using SweepParam = std::tuple<int /*expr*/, int /*joins*/, int /*seed*/>;

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  return "E" + std::to_string(std::get<0>(info.param)) + "_N" +
         std::to_string(std::get<1>(info.param)) + "_seed" +
         std::to_string(std::get<2>(info.param));
}

QuerySpec SpecFor(const SweepParam& p, bool with_indexes, bool small) {
  QuerySpec spec;
  spec.expr = static_cast<ExprKind>(std::get<0>(p));
  spec.num_joins = std::get<1>(p);
  spec.seed = static_cast<uint64_t>(std::get<2>(p));
  spec.with_indexes = with_indexes;
  if (small) {
    spec.min_card = 5;
    spec.max_card = 25;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// P1: optimized plans compute the same result as naive evaluation
// ---------------------------------------------------------------------------

class ResultCorrectness : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ResultCorrectness, OptimizedPlanMatchesNaiveEvaluation) {
  const auto& rules = OodbGenerated();
  for (bool with_indexes : {false, true}) {
    QuerySpec spec = SpecFor(GetParam(), with_indexes, /*small=*/true);
    ASSERT_OK_AND_ASSIGN(workload::Workload w,
                         workload::MakeWorkload(*rules->algebra, spec));
    ASSERT_OK_AND_ASSIGN(exec::Database db,
                         workload::MakeDatabase(w.catalog, spec.seed + 77));

    ASSERT_OK_AND_ASSIGN(opt::ReferenceResult expected,
                         opt::EvaluateLogical(*w.query, *rules->algebra, db));

    volcano::Optimizer optimizer(rules.get(), &w.catalog);
    ASSERT_OK_AND_ASSIGN(volcano::Plan plan, optimizer.Optimize(*w.query));
    algebra::ExprPtr plan_expr = plan.root->ToExpr(*rules->algebra);
    EXPECT_TRUE(plan_expr->IsAccessPlan(*rules->algebra));
    ASSERT_OK_AND_ASSIGN(exec::IterPtr it,
                         Executors().Build(*plan_expr, *rules->algebra, db));
    exec::RowSchema plan_schema = it->schema();
    ASSERT_OK_AND_ASSIGN(std::vector<exec::Row> actual,
                         exec::CollectAll(it.get()));

    EXPECT_TRUE(exec::SameResult(
        CanonicalColumns(actual, plan_schema),
        CanonicalColumns(expected.rows, expected.schema)))
        << "indexes=" << with_indexes << " plan "
        << plan_expr->ToString(*rules->algebra) << ": " << actual.size()
        << " rows vs " << expected.rows.size() << " expected";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ResultCorrectness,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3)),
    SweepName);

// ---------------------------------------------------------------------------
// P2: generated and hand-coded optimizers agree on cost
// ---------------------------------------------------------------------------

class CostEquivalence : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CostEquivalence, GeneratedEqualsHandCoded) {
  for (bool with_indexes : {false, true}) {
    QuerySpec spec = SpecFor(GetParam(), with_indexes, /*small=*/false);
    ASSERT_OK_AND_ASSIGN(
        workload::Workload wg,
        workload::MakeWorkload(*OodbGenerated()->algebra, spec));
    ASSERT_OK_AND_ASSIGN(workload::Workload wh,
                         workload::MakeWorkload(*OodbHand()->algebra, spec));
    volcano::Optimizer og(OodbGenerated().get(), &wg.catalog);
    volcano::Optimizer oh(OodbHand().get(), &wh.catalog);
    ASSERT_OK_AND_ASSIGN(volcano::Plan pg, og.Optimize(*wg.query));
    ASSERT_OK_AND_ASSIGN(volcano::Plan ph, oh.Optimize(*wh.query));
    EXPECT_NEAR(pg.cost, ph.cost, 1e-6 * std::max(1.0, pg.cost))
        << "indexes=" << with_indexes << "\n generated "
        << pg.root->ToString(*OodbGenerated()->algebra) << "\n hand      "
        << ph.root->ToString(*OodbHand()->algebra);
    // Both run the same search and pick the same plan, descriptors
    // included.
    const volcano::OptimizerStats& sg = og.stats();
    const volcano::OptimizerStats& sh = oh.stats();
    EXPECT_EQ(sg.groups, sh.groups);
    EXPECT_EQ(sg.mexprs, sh.mexprs);
    EXPECT_EQ(sg.trans_fired, sh.trans_fired);
    EXPECT_EQ(sg.trans_attempts, sh.trans_attempts);
    EXPECT_EQ(sg.plans_costed, sh.plans_costed);
    const algebra::Algebra& ag = *OodbGenerated()->algebra;
    const algebra::Algebra& ah = *OodbHand()->algebra;
    EXPECT_EQ(pg.root->ToExpr(ag)->TreeString(ag),
              ph.root->ToExpr(ah)->TreeString(ah))
        << "indexes=" << with_indexes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CostEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(4, 5)),
    SweepName);

// ---------------------------------------------------------------------------
// P3: pruning never changes the answer
// ---------------------------------------------------------------------------

class PruningSoundness : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PruningSoundness, PrunedCostEqualsExhaustiveCost) {
  const auto& rules = OodbHand();
  QuerySpec spec = SpecFor(GetParam(), /*with_indexes=*/true,
                           /*small=*/false);
  ASSERT_OK_AND_ASSIGN(workload::Workload w,
                       workload::MakeWorkload(*rules->algebra, spec));
  volcano::OptimizerOptions pruned;
  pruned.prune = true;
  volcano::OptimizerOptions full;
  full.prune = false;
  volcano::Optimizer op(rules.get(), &w.catalog, pruned);
  volcano::Optimizer of(rules.get(), &w.catalog, full);
  ASSERT_OK_AND_ASSIGN(volcano::Plan pp, op.Optimize(*w.query));
  ASSERT_OK_AND_ASSIGN(volcano::Plan pf, of.Optimize(*w.query->Clone()));
  EXPECT_NEAR(pp.cost, pf.cost, 1e-9 * std::max(1.0, pf.cost));
  EXPECT_LE(op.stats().plans_costed, of.stats().plans_costed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PruningSoundness,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(6)),
    SweepName);

// ---------------------------------------------------------------------------
// P4: required sort orders are really delivered
// ---------------------------------------------------------------------------

class OrderDelivery : public ::testing::TestWithParam<int /*seed*/> {};

TEST_P(OrderDelivery, ExecutedRowsArriveInRequiredOrder) {
  const auto& rules = OodbGenerated();
  QuerySpec spec;
  spec.expr = ExprKind::kE1;
  spec.num_joins = 2;
  spec.seed = static_cast<uint64_t>(GetParam());
  spec.min_card = 5;
  spec.max_card = 30;
  ASSERT_OK_AND_ASSIGN(workload::Workload w,
                       workload::MakeWorkload(*rules->algebra, spec));
  ASSERT_OK_AND_ASSIGN(exec::Database db,
                       workload::MakeDatabase(w.catalog, spec.seed));

  algebra::Attr key{"C1", "a"};
  algebra::Descriptor required(&rules->algebra->properties());
  ASSERT_OK(required.Set(opt::kTupleOrder,
                         algebra::Value::Sort(algebra::SortSpec::On(key))));

  volcano::Optimizer optimizer(rules.get(), &w.catalog);
  ASSERT_OK_AND_ASSIGN(volcano::Plan plan,
                       optimizer.Optimize(*w.query, required));
  algebra::ExprPtr plan_expr = plan.root->ToExpr(*rules->algebra);
  ASSERT_OK_AND_ASSIGN(exec::IterPtr it,
                       Executors().Build(*plan_expr, *rules->algebra, db));
  ASSERT_OK_AND_ASSIGN(int key_pos, it->schema().Require(key));
  ASSERT_OK_AND_ASSIGN(std::vector<exec::Row> rows,
                       exec::CollectAll(it.get()));
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(exec::CompareDatum(rows[i - 1][static_cast<size_t>(key_pos)],
                                 rows[i][static_cast<size_t>(key_pos)]),
              0)
        << "row " << i << " out of order in plan "
        << plan_expr->ToString(*rules->algebra);
  }
  // A sorted-order requirement must also not change the result contents.
  volcano::Optimizer unordered(rules.get(), &w.catalog);
  ASSERT_OK_AND_ASSIGN(volcano::Plan base, unordered.Optimize(*w.query));
  algebra::ExprPtr base_expr = base.root->ToExpr(*rules->algebra);
  ASSERT_OK_AND_ASSIGN(exec::IterPtr base_it,
                       Executors().Build(*base_expr, *rules->algebra, db));
  exec::RowSchema base_schema = base_it->schema();
  ASSERT_OK_AND_ASSIGN(std::vector<exec::Row> base_rows,
                       exec::CollectAll(base_it.get()));
  EXPECT_TRUE(exec::SameResult(CanonicalColumns(rows, it->schema()),
                               CanonicalColumns(base_rows, base_schema)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrderDelivery, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Relational optimizer sweeps (interesting orders via Merge_join)
// ---------------------------------------------------------------------------

class RelationalSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RelationalSweep, GeneratedEqualsHandCodedOnE1) {
  static auto generated = [] {
    auto pr = opt::BuildRelationalPrairie();
    EXPECT_TRUE(pr.ok());
    auto v = p2v::Translate(*pr, nullptr);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }();
  static auto hand = [] {
    auto v = opt::BuildRelationalVolcano();
    EXPECT_TRUE(v.ok());
    return *v;
  }();
  QuerySpec spec = SpecFor(GetParam(), /*with_indexes=*/true,
                           /*small=*/false);
  spec.expr = ExprKind::kE1;  // The relational algebra has no SELECT/MAT.
  ASSERT_OK_AND_ASSIGN(workload::Workload wg,
                       workload::MakeWorkload(*generated->algebra, spec));
  ASSERT_OK_AND_ASSIGN(workload::Workload wh,
                       workload::MakeWorkload(*hand->algebra, spec));
  volcano::Optimizer og(generated.get(), &wg.catalog);
  volcano::Optimizer oh(hand.get(), &wh.catalog);
  ASSERT_OK_AND_ASSIGN(volcano::Plan pg, og.Optimize(*wg.query));
  ASSERT_OK_AND_ASSIGN(volcano::Plan ph, oh.Optimize(*wh.query));
  EXPECT_NEAR(pg.cost, ph.cost, 1e-6 * std::max(1.0, pg.cost));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RelationalSweep,
    ::testing::Combine(::testing::Values(1), ::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(7, 8, 9)),
    SweepName);

}  // namespace
}  // namespace prairie
