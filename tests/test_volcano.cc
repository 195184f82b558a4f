// Unit tests for the Volcano search engine: memo deduplication and
// merging, transformation closure, top-down costing, physical-property
// requirements, enforcers, and branch-and-bound pruning.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "optimizers/oodb.h"
#include "p2v/translator.h"
#include "volcano/engine.h"
#include "volcano/inspect.h"
#include "volcano/plancache.h"
#include "volcano/profile.h"
#include "workload/workload.h"

namespace prairie::volcano {
namespace {

using algebra::Algebra;
using algebra::Attr;
using algebra::Descriptor;
using algebra::Expr;
using algebra::ExprPtr;
using algebra::OpId;
using algebra::PatNode;
using algebra::SortSpec;
using algebra::Value;
using algebra::ValueType;
using common::Status;

// A micro-optimizer: RET/JOIN with Scan and NL algorithms, plus a Sorter
// enforcer. Costs: Scan = card; NL = outer + card_outer * inner;
// Sorter = input + n log n. Only "order" is physical; "card" is logical.
class MicroOptimizer : public ::testing::Test {
 protected:
  void SetUp() override {
    rules_.name = "micro";
    rules_.algebra = std::make_shared<Algebra>();
    auto* schema = rules_.algebra->mutable_properties();
    ASSERT_TRUE(schema->Add("order", ValueType::kSort).ok());
    ASSERT_TRUE(schema->Add("card", ValueType::kReal).ok());
    ASSERT_TRUE(schema->Add("tag", ValueType::kString).ok());
    ASSERT_TRUE(schema->Add("cost", ValueType::kReal, true).ok());
    order_ = *schema->Find("order");
    card_ = *schema->Find("card");
    tag_ = *schema->Find("tag");
    cost_ = *schema->Find("cost");
    ret_ = *rules_.algebra->RegisterOperator("RET", 1);
    join_ = *rules_.algebra->RegisterOperator("JOIN", 2);
    scan_ = *rules_.algebra->RegisterAlgorithm("Scan", 1);
    nl_ = *rules_.algebra->RegisterAlgorithm("NL", 2);
    sorter_ = *rules_.algebra->RegisterAlgorithm("Sorter", 1);

    rules_.cost_prop = cost_;
    rules_.phys_props = {order_};
    rules_.logical_props = {card_};

    // trans: JOIN(a, b) -> JOIN(b, a)
    TransRule commute;
    commute.name = "commute";
    commute.lhs = PatNode::Op(join_, 2, MakeStreams());
    commute.rhs = PatNode::Op(join_, 3, MakeStreamsSwapped());
    commute.num_slots = 4;
    commute.apply = [](BindingView& bv) -> Status {
      bv.slot(3) = bv.slot(2);
      return Status::OK();
    };
    rules_.trans_rules.push_back(std::move(commute));

    // impl: RET -> Scan. Cost = card of the file; no order produced.
    {
      ImplRule r;
      r.name = "scan";
      r.op = ret_;
      r.alg = scan_;
      r.arity = 1;
      r.rhs_input_slots = {0};
      r.alg_slot = 2;
      r.num_slots = 3;
      auto card = card_;
      auto cost = cost_;
      auto order = order_;
      r.pre_opt = [card, cost, order](BindingView& bv) -> Status {
        bv.slot(2) = bv.slot(1);
        bv.slot(2).SetUnchecked(order, Value::Sort(SortSpec::DontCare()));
        return Status::OK();
      };
      r.post_opt = [card, cost](BindingView& bv) -> Status {
        bv.slot(2).SetUnchecked(
            cost, Value::Real(bv.slot(0).Get(card).ToReal().ValueOr(0)));
        return Status::OK();
      };
      rules_.impl_rules.push_back(std::move(r));
    }

    // impl: JOIN -> NL. Cost = outer_cost + outer_card * inner_cost.
    {
      ImplRule r;
      r.name = "nl";
      r.op = join_;
      r.alg = nl_;
      r.arity = 2;
      r.rhs_input_slots = {3, 1};  // Fresh outer descriptor D4.
      r.alg_slot = 4;
      r.num_slots = 5;
      auto card = card_;
      auto cost = cost_;
      auto order = order_;
      r.pre_opt = [order](BindingView& bv) -> Status {
        bv.slot(4) = bv.slot(2);
        bv.slot(3) = bv.slot(0);
        bv.slot(3).SetUnchecked(order, bv.slot(2).Get(order));
        return Status::OK();
      };
      r.post_opt = [card, cost](BindingView& bv) -> Status {
        double outer_cost = bv.slot(3).Get(cost).ToReal().ValueOr(0);
        double outer_card = bv.slot(3).Get(card).ToReal().ValueOr(0);
        double inner_cost = bv.slot(1).Get(cost).ToReal().ValueOr(0);
        bv.slot(4).SetUnchecked(
            cost, Value::Real(outer_cost + outer_card * inner_cost));
        return Status::OK();
      };
      rules_.impl_rules.push_back(std::move(r));
    }

    // Enforcer: Sorter for "order".
    {
      Enforcer e;
      e.name = "sorter";
      e.alg = sorter_;
      e.prop = order_;
      auto card = card_;
      auto cost = cost_;
      e.pre_opt = [](BindingView& bv) -> Status {
        bv.slot(Enforcer::kAlgSlot) = bv.slot(Enforcer::kOpSlot);
        return Status::OK();
      };
      e.post_opt = [card, cost](BindingView& bv) -> Status {
        double n =
            bv.slot(Enforcer::kAlgSlot).Get(card).ToReal().ValueOr(0);
        double in =
            bv.slot(Enforcer::kInputSlot).Get(cost).ToReal().ValueOr(0);
        bv.slot(Enforcer::kAlgSlot)
            .SetUnchecked(cost,
                          Value::Real(in + (n <= 1 ? 0 : n * std::log(n))));
        return Status::OK();
      };
      rules_.enforcers.push_back(std::move(e));
    }

    ASSERT_TRUE(rules_.Finalize().ok()) << rules_.Finalize().ToString();
  }

  std::vector<algebra::PatNodePtr> MakeStreams() {
    std::vector<algebra::PatNodePtr> kids;
    kids.push_back(PatNode::Stream(1, 0));
    kids.push_back(PatNode::Stream(2, 1));
    return kids;
  }
  std::vector<algebra::PatNodePtr> MakeStreamsSwapped() {
    std::vector<algebra::PatNodePtr> kids;
    kids.push_back(PatNode::Stream(2, 1));
    kids.push_back(PatNode::Stream(1, 0));
    return kids;
  }

  Descriptor Desc() { return Descriptor(&rules_.algebra->properties()); }

  ExprPtr RetOf(const std::string& file, double card) {
    Descriptor leaf = Desc();
    leaf.SetUnchecked(card_, Value::Real(card));
    ExprPtr f = Expr::MakeFile(file, leaf);
    Descriptor d = Desc();
    d.SetUnchecked(card_, Value::Real(card));
    d.SetUnchecked(tag_, Value::Str(file));
    std::vector<ExprPtr> kids;
    kids.push_back(std::move(f));
    return Expr::MakeOp(ret_, std::move(kids), std::move(d));
  }

  ExprPtr JoinOf(ExprPtr l, ExprPtr r, double card) {
    Descriptor d = Desc();
    d.SetUnchecked(card_, Value::Real(card));
    std::vector<ExprPtr> kids;
    kids.push_back(std::move(l));
    kids.push_back(std::move(r));
    return Expr::MakeOp(join_, std::move(kids), std::move(d));
  }

  RuleSet rules_;
  catalog::Catalog catalog_;
  algebra::PropertyId order_, card_, tag_, cost_;
  OpId ret_, join_, scan_, nl_, sorter_;
};

TEST_F(MicroOptimizer, OptimizesSingleRet) {
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*RetOf("R", 100));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_DOUBLE_EQ(plan->cost, 100);
  EXPECT_EQ(plan->root->alg, scan_);
}

TEST_F(MicroOptimizer, CommutePicksCheaperOuter) {
  // NL(big, small) costs 1000 + 1000*10; NL(small, big) costs 10+10*1000.
  // The commute rule must expose the cheaper order.
  Optimizer o(&rules_, &catalog_);
  auto plan =
      o.Optimize(*JoinOf(RetOf("Big", 1000), RetOf("Small", 10), 500));
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->cost, 10 + 10 * 1000);
  // The outer child of the chosen NL is the small scan.
  ASSERT_EQ(plan->root->children.size(), 2u);
  EXPECT_EQ(plan->root->children[0]->desc.Get(tag_), Value::Str("Small"));
}

TEST_F(MicroOptimizer, MemoDeduplicatesCommutedExpressions) {
  Optimizer o(&rules_, &catalog_);
  auto plan =
      o.Optimize(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5));
  ASSERT_TRUE(plan.ok());
  // Groups: file A, RET A, file B, RET B, JOIN -> 5. Commuting the join
  // adds an expression to the join group, not a new group.
  EXPECT_EQ(o.stats().groups, 5u);
  const Group& g = o.memo().group(4);
  (void)g;
  EXPECT_EQ(o.stats().mexprs, 6u);  // 5 originals + 1 commuted join.
  EXPECT_EQ(o.stats().trans_fired, 1u);
  EXPECT_EQ(o.stats().NumTransMatched(), 1u);
}

TEST_F(MicroOptimizer, RequiredOrderTriggersEnforcer) {
  Optimizer o(&rules_, &catalog_);
  Descriptor req = Desc();
  SortSpec by_a = SortSpec::On(Attr{"R", "a"});
  req.SetUnchecked(order_, Value::Sort(by_a));
  auto plan = o.Optimize(*RetOf("R", 100), req);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Sorter on top of Scan: 100 + 100 ln 100.
  EXPECT_EQ(plan->root->alg, sorter_);
  EXPECT_NEAR(plan->cost, 100 + 100 * std::log(100.0), 1e-9);
  EXPECT_GE(o.stats().enforcer_attempts, 1u);
  // The plan reports the enforced order.
  EXPECT_TRUE(plan->root->desc.Get(order_).AsSort().Satisfies(by_a));
}

TEST_F(MicroOptimizer, DontCareRequirementNeedsNoEnforcer) {
  Optimizer o(&rules_, &catalog_);
  Descriptor req = Desc();
  req.SetUnchecked(order_, Value::Sort(SortSpec::DontCare()));
  auto plan = o.Optimize(*RetOf("R", 100), req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->alg, scan_);
  EXPECT_DOUBLE_EQ(plan->cost, 100);
}

TEST_F(MicroOptimizer, PruningDoesNotChangeTheAnswer) {
  ExprPtr tree = JoinOf(JoinOf(RetOf("A", 50), RetOf("B", 40), 30),
                        RetOf("C", 20), 10);
  OptimizerOptions pruned;
  pruned.prune = true;
  OptimizerOptions full;
  full.prune = false;
  Optimizer op(&rules_, &catalog_, pruned);
  Optimizer of(&rules_, &catalog_, full);
  auto pp = op.Optimize(*tree);
  auto pf = of.Optimize(*tree->Clone());
  ASSERT_TRUE(pp.ok());
  ASSERT_TRUE(pf.ok());
  EXPECT_DOUBLE_EQ(pp->cost, pf->cost);
  // Pruning must not cost more plans than the full search.
  EXPECT_LE(op.stats().plans_costed, of.stats().plans_costed);
}

TEST_F(MicroOptimizer, InitialCostLimitCanMakeSearchInfeasible) {
  OptimizerOptions opts;
  opts.initial_cost_limit = 5;  // Scan of R costs 100 > 5.
  Optimizer o(&rules_, &catalog_, opts);
  auto plan = o.Optimize(*RetOf("R", 100));
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), common::StatusCode::kOptimizeError);
}

TEST_F(MicroOptimizer, MemoLimitSurfacesResourceExhausted) {
  OptimizerOptions opts;
  opts.memo_limits.max_groups = 2;
  Optimizer o(&rules_, &catalog_, opts);
  auto plan = o.Optimize(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5));
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), common::StatusCode::kResourceExhausted);
}

TEST_F(MicroOptimizer, MemoExprLimitAppliesToGroupCreation) {
  // CopyIn adds every expression through group creation: the expression
  // limit must hold there too, not only when appending to a group.
  MemoLimits limits;
  limits.max_exprs = 2;
  std::vector<ExprPtr> kids;
  kids.push_back(RetOf("A", 10));
  ExprPtr three_nodes = Expr::MakeOp(ret_, std::move(kids), Desc());
  Memo memo(&rules_, limits);
  auto g = memo.CopyIn(*three_nodes);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(memo.NumExprs(), 2u);
}

TEST_F(MicroOptimizer, AlgorithmInInputTreeRejected) {
  Descriptor d = Desc();
  std::vector<ExprPtr> kids;
  kids.push_back(Expr::MakeFile("R", Desc()));
  ExprPtr bad = Expr::MakeOp(scan_, std::move(kids), d);
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*bad);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(MicroOptimizer, ExpandOnlyCountsEquivalenceClasses) {
  Optimizer o(&rules_, &catalog_);
  auto groups =
      o.ExpandOnly(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5));
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(*groups, 5u);
  EXPECT_EQ(o.stats().plans_costed, 0u);
}

TEST_F(MicroOptimizer, WinnersAreMemoized) {
  // Optimizing the same shared subtree twice must not double the costed
  // plans: A JOIN A reuses the winner for RET(A).
  Optimizer o(&rules_, &catalog_);
  ExprPtr tree = JoinOf(RetOf("A", 10), RetOf("A", 10), 5);
  auto plan = o.Optimize(*tree);
  ASSERT_TRUE(plan.ok());
  // Both join inputs are the SAME group (deduplicated).
  EXPECT_EQ(o.stats().groups, 3u);  // file A, RET A, JOIN.
}

TEST_F(MicroOptimizer, ConditionFalseSkipsRule) {
  rules_.impl_rules[1].condition = [](BindingView&) -> common::Result<bool> {
    return false;
  };
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5));
  EXPECT_FALSE(plan.ok());  // No join implementation applies.
}

TEST_F(MicroOptimizer, RuleErrorsPropagate) {
  rules_.impl_rules[0].post_opt = [](BindingView&) -> Status {
    return Status::RuleError("intentional failure");
  };
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*RetOf("R", 1));
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("intentional failure"),
            std::string::npos);
}

TEST_F(MicroOptimizer, MissingCostAssignmentIsARuleError) {
  rules_.impl_rules[0].post_opt = nullptr;
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*RetOf("R", 1));
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("cost"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Memo structure
// ---------------------------------------------------------------------------

TEST_F(MicroOptimizer, MemoCopyInDeduplicatesIdenticalSubtrees) {
  Memo memo(&rules_, MemoLimits{});
  ExprPtr tree = JoinOf(RetOf("A", 10), RetOf("A", 10), 5);
  auto g = memo.CopyIn(*tree);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(memo.NumGroups(), 3u);
  EXPECT_EQ(memo.NumExprs(), 3u);
}

TEST_F(MicroOptimizer, MemoInsertDuplicateIsNoOp) {
  Memo memo(&rules_, MemoLimits{});
  GroupId g = *memo.CopyIn(*RetOf("A", 10));
  MExpr dup = memo.group(g).exprs[0];
  auto added = memo.InsertInto(g, dup);
  ASSERT_TRUE(added.ok());
  EXPECT_FALSE(*added);
  EXPECT_EQ(memo.NumExprs(), 2u);
}

TEST_F(MicroOptimizer, MemoMergesProvablyEqualGroups) {
  Memo memo(&rules_, MemoLimits{});
  GroupId g1 = *memo.CopyIn(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5));
  // An unrelated group that we then prove equal to g1 by inserting g1's
  // root expression into it.
  GroupId g2 = *memo.CopyIn(*RetOf("C", 30));
  size_t before = memo.NumGroups();
  MExpr root = memo.group(g1).exprs[0];
  ASSERT_TRUE(memo.InsertInto(g2, root).ok());
  EXPECT_EQ(memo.NumGroups(), before - 1);
  EXPECT_EQ(memo.Find(g1), memo.Find(g2));
  EXPECT_GT(memo.merge_epoch(), 0u);
}

// A JOIN over `kids` with a fixed descriptor, built directly in the memo.
MExpr JoinOver(Memo* memo, OpId join, const Descriptor& d,
               std::vector<GroupId> kids) {
  MExpr m;
  m.op = join;
  m.args = memo->store()->Intern(d);
  m.children = std::move(kids);
  return m;
}

// Proves groups x and y equal by inserting x's expression into y.
void MergeByInsert(Memo* memo, GroupId x, GroupId y) {
  MExpr m = memo->group(x).exprs[0];
  ASSERT_TRUE(memo->InsertInto(y, m).ok());
  ASSERT_EQ(memo->Find(x), memo->Find(y));
}

// Live expressions of g's canonical group.
size_t LiveExprs(const Memo& memo, GroupId g) {
  size_t n = 0;
  for (const MExpr& m : memo.group(g).exprs) n += !m.dead;
  return n;
}

TEST_F(MicroOptimizer, MemoMergeDropsTheDuplicateItMakes) {
  Memo memo(&rules_, MemoLimits{});
  const GroupId x = *memo.CopyIn(*RetOf("A", 10));
  const GroupId y = *memo.CopyIn(*RetOf("B", 20));
  const GroupId w = *memo.CopyIn(*RetOf("C", 30));
  const Descriptor d = Desc();
  // One group holds JOIN(x, w) and JOIN(y, w).
  const GroupId p = *memo.GetOrCreateGroup(JoinOver(&memo, join_, d, {x, w}),
                                           memo.store()->Intern(d));
  ASSERT_TRUE(*memo.InsertInto(p, JoinOver(&memo, join_, d, {y, w})));
  ASSERT_EQ(LiveExprs(memo, p), 2u);
  const size_t exprs = memo.NumExprs();
  const size_t groups = memo.NumGroups();

  MergeByInsert(&memo, x, y);
  EXPECT_EQ(memo.NumGroups(), groups - 1);
  EXPECT_EQ(memo.NumExprs(), exprs - 1);
  EXPECT_EQ(LiveExprs(memo, p), 1u);
  // The survivor is found over either child id: inserting adds nothing.
  for (GroupId c : {x, y}) {
    auto added = memo.InsertInto(p, JoinOver(&memo, join_, d, {c, w}));
    ASSERT_TRUE(added.ok());
    EXPECT_FALSE(*added) << "over g" << c;
  }
  EXPECT_EQ(memo.NumExprs(), exprs - 1);
  EXPECT_EQ(memo.NumGroups(), groups - 1);
  // The dump skips the dropped copy.
  const std::string dump = memo.ToString(*rules_.algebra);
  ASSERT_NE(dump.find("JOIN("), std::string::npos);
  EXPECT_EQ(dump.find("JOIN("), dump.rfind("JOIN("));
}

TEST_F(MicroOptimizer, MemoMergeCascadesToParentsThatBecomeEqual) {
  Memo memo(&rules_, MemoLimits{});
  const GroupId x = *memo.CopyIn(*RetOf("A", 10));
  const GroupId y = *memo.CopyIn(*RetOf("B", 20));
  const GroupId w = *memo.CopyIn(*RetOf("C", 30));
  const Descriptor d = Desc();
  const algebra::DescriptorId did = memo.store()->Intern(d);
  // a = JOIN(x, w) and b = JOIN(y, w) in two groups; one level up,
  // JOIN(a, w) and JOIN(b, w) in two more.
  const GroupId a = *memo.GetOrCreateGroup(JoinOver(&memo, join_, d, {x, w}),
                                           did);
  const GroupId b = *memo.GetOrCreateGroup(JoinOver(&memo, join_, d, {y, w}),
                                           did);
  const GroupId pa = *memo.GetOrCreateGroup(JoinOver(&memo, join_, d, {a, w}),
                                            did);
  const GroupId pb = *memo.GetOrCreateGroup(JoinOver(&memo, join_, d, {b, w}),
                                            did);
  ASSERT_NE(a, b);
  ASSERT_NE(pa, pb);
  const size_t exprs = memo.NumExprs();
  const size_t groups = memo.NumGroups();
  const uint64_t merges = memo.tallies().groups_merged;

  MergeByInsert(&memo, x, y);
  EXPECT_EQ(memo.Find(a), memo.Find(b));
  EXPECT_EQ(memo.Find(pa), memo.Find(pb));
  EXPECT_EQ(memo.tallies().groups_merged, merges + 3);
  EXPECT_EQ(memo.NumGroups(), groups - 3);
  EXPECT_EQ(memo.NumExprs(), exprs - 2);
  EXPECT_EQ(LiveExprs(memo, a), 1u);
  EXPECT_EQ(LiveExprs(memo, pa), 1u);
}

TEST_F(MicroOptimizer, SeventyTransRulesDoNotAliasAppliedBits) {
  // Regression for the applied-rule bookkeeping: with 70 trans_rules the
  // live rule's index (69) used to alias index 69 % 64 == 5 in the old
  // single-uint64_t applied mask, so after the dead clone at index 5 was
  // attempted the real commute at index 69 was skipped and the optimizer
  // kept the expensive join order (1000 + 1000*10 instead of 10 + 10*1000).
  TransRule live = std::move(rules_.trans_rules[0]);
  rules_.trans_rules.clear();
  for (int i = 0; i < 69; ++i) {
    TransRule dead;
    dead.name = "dead_commute_" + std::to_string(i);
    dead.lhs = PatNode::Op(join_, 2, MakeStreams());
    dead.rhs = PatNode::Op(join_, 3, MakeStreamsSwapped());
    dead.num_slots = 4;
    dead.condition = [](BindingView&) -> common::Result<bool> {
      return false;
    };
    dead.apply = [](BindingView&) -> Status {
      return Status::RuleError("dead clone must never fire");
    };
    rules_.trans_rules.push_back(std::move(dead));
  }
  rules_.trans_rules.push_back(std::move(live));
  ASSERT_EQ(rules_.trans_rules.size(), 70u);
  ASSERT_TRUE(rules_.Finalize().ok());

  Optimizer o(&rules_, &catalog_);
  auto plan =
      o.Optimize(*JoinOf(RetOf("Big", 1000), RetOf("Small", 10), 500));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_DOUBLE_EQ(plan->cost, 10 + 10 * 1000);
  EXPECT_EQ(o.stats().trans_fired, 1u);  // Only rule 69 ever fires.
  ASSERT_EQ(plan->root->children.size(), 2u);
  EXPECT_EQ(plan->root->children[0]->desc.Get(tag_), Value::Str("Small"));
}

TEST_F(MicroOptimizer, MergeUnderInterningKeepsIdsConsistent) {
  Memo memo(&rules_, MemoLimits{});
  GroupId g1 = *memo.CopyIn(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5));
  GroupId g2 = *memo.CopyIn(*RetOf("C", 30));
  size_t groups_before = memo.NumGroups();
  // Equal descriptors interned through independent CopyIn calls share ids,
  // so re-copying the RET(A) subtree dedups into g1's subgroup: no new
  // groups appear.
  GroupId ga = *memo.CopyIn(*RetOf("A", 10));
  EXPECT_EQ(memo.NumGroups(), groups_before);
  const size_t interned_before = memo.store()->size();

  MExpr root = memo.group(g1).exprs[0];
  ASSERT_TRUE(memo.InsertInto(g2, root).ok());
  EXPECT_EQ(memo.Find(g1), memo.Find(g2));
  EXPECT_EQ(memo.NumGroups(), groups_before - 1);
  // Merging rewires groups without minting descriptor values: the store
  // did not grow.
  EXPECT_EQ(memo.store()->size(), interned_before);

  // Every expression in the surviving groups still round-trips through the
  // store with its cached hash, and winners were invalidated by the merge.
  for (GroupId gid : {memo.Find(g1), memo.Find(ga)}) {
    const Group& g = memo.group(gid);
    EXPECT_TRUE(g.winners.empty());
    ASSERT_NE(g.stream_desc, algebra::kInvalidDescriptorId);
    for (const MExpr& m : g.exprs) {
      ASSERT_NE(m.args, algebra::kInvalidDescriptorId);
      ASSERT_NE(m.arg_key, algebra::kInvalidDescriptorId);
      EXPECT_EQ(memo.store()->HashOf(m.args),
                memo.store()->Get(m.args).Hash());
    }
  }
  EXPECT_GT(memo.merge_epoch(), 0u);
  // Interning saw real sharing while building the memo.
  EXPECT_GT(memo.store()->hits(), 0u);
  EXPECT_LE(memo.store()->size(), memo.store()->lookups());
}

TEST_F(MicroOptimizer, OptimizerReportsInterningStats) {
  Optimizer o(&rules_, &catalog_);
  ExprPtr tree = JoinOf(RetOf("A", 10), RetOf("A", 10), 5);
  auto plan = o.Optimize(*tree);
  ASSERT_TRUE(plan.ok());
  // The duplicated RET(A) subtree guarantees interning hits.
  EXPECT_GT(o.stats().desc_interned, 0u);
  EXPECT_GT(o.stats().desc_lookups, o.stats().desc_hits);
  EXPECT_GT(o.stats().desc_hits, 0u);
  EXPECT_GT(o.stats().InternHitRate(), 0.0);
  EXPECT_LT(o.stats().InternHitRate(), 1.0);
}

TEST_F(MicroOptimizer, LogicalPropsExcludedFromIdentity) {
  Memo memo(&rules_, MemoLimits{});
  ExprPtr a = RetOf("A", 10);
  GroupId g1 = *memo.CopyIn(*a);
  // Same expression with a different card estimate dedups into the same
  // group: card is a logical property.
  ExprPtr b = RetOf("A", 10);
  b->mutable_descriptor()->SetUnchecked(card_, Value::Real(999));
  GroupId g2 = *memo.CopyIn(*b);
  EXPECT_EQ(memo.Find(g1), memo.Find(g2));
  // But a different *argument* property (tag) distinguishes expressions.
  ExprPtr c = RetOf("A", 10);
  c->mutable_descriptor()->SetUnchecked(tag_, Value::Str("other"));
  GroupId g3 = *memo.CopyIn(*c);
  EXPECT_NE(memo.Find(g1), memo.Find(g3));
}

}  // namespace
}  // namespace prairie::volcano

namespace prairie::volcano {
namespace {

// Additional engine-behaviour coverage appended after the main fixture.

class MicroOptimizerMore : public MicroOptimizer {};

TEST_F(MicroOptimizerMore, SecondOptimizeCallReusesTheMemo) {
  Optimizer o(&rules_, &catalog_);
  ExprPtr tree = JoinOf(RetOf("A", 10), RetOf("B", 20), 5);
  auto p1 = o.Optimize(*tree);
  ASSERT_TRUE(p1.ok());
  size_t groups_after_first = o.stats().groups;
  size_t costed_after_first = o.stats().plans_costed;
  // Same tree again: everything is memoized; no new groups, no new
  // costed plans.
  auto p2 = o.Optimize(*tree->Clone());
  ASSERT_TRUE(p2.ok());
  EXPECT_DOUBLE_EQ(p1->cost, p2->cost);
  EXPECT_EQ(o.stats().groups, groups_after_first);
  EXPECT_EQ(o.stats().plans_costed, costed_after_first);
}

TEST_F(MicroOptimizerMore, DifferentRequirementsShareLogicalExpansion) {
  Optimizer o(&rules_, &catalog_);
  ExprPtr tree = RetOf("R", 64);
  auto unordered = o.Optimize(*tree);
  ASSERT_TRUE(unordered.ok());
  size_t mexprs = o.stats().mexprs;
  Descriptor req = Desc();
  req.SetUnchecked(order_, Value::Sort(SortSpec::On(Attr{"R", "a"})));
  auto ordered = o.Optimize(*tree->Clone(), req);
  ASSERT_TRUE(ordered.ok());
  // The logical space did not grow; only a new winner was computed.
  EXPECT_EQ(o.stats().mexprs, mexprs);
  EXPECT_GT(ordered->cost, unordered->cost);
}

TEST_F(MicroOptimizerMore, EnforcerConditionCanReject) {
  rules_.enforcers[0].condition = [](BindingView&) -> common::Result<bool> {
    return false;
  };
  Optimizer o(&rules_, &catalog_);
  Descriptor req = Desc();
  req.SetUnchecked(order_, Value::Sort(SortSpec::On(Attr{"R", "a"})));
  auto plan = o.Optimize(*RetOf("R", 10), req);
  // Scan cannot produce the order and the only enforcer refuses.
  EXPECT_FALSE(plan.ok());
}

TEST_F(MicroOptimizerMore, EnforcerApplicablePredicateFilters) {
  rules_.enforcers[0].applicable = [](const Value&) { return false; };
  Optimizer o(&rules_, &catalog_);
  Descriptor req = Desc();
  req.SetUnchecked(order_, Value::Sort(SortSpec::On(Attr{"R", "a"})));
  auto plan = o.Optimize(*RetOf("R", 10), req);
  EXPECT_FALSE(plan.ok());
}

TEST_F(MicroOptimizerMore, StatsTrackMatchedRuleSets) {
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*RetOf("R", 10));
  ASSERT_TRUE(plan.ok());
  // No join anywhere: the commute rule never matched.
  EXPECT_EQ(o.stats().NumTransMatched(), 0u);
  EXPECT_EQ(o.stats().NumImplMatched(), 1u);  // Only the scan rule.
}

TEST_F(MicroOptimizerMore, MemoToStringListsGroups) {
  Memo memo(&rules_, MemoLimits{});
  ASSERT_TRUE(memo.CopyIn(*JoinOf(RetOf("A", 1), RetOf("B", 2), 3)).ok());
  std::string text = memo.ToString(*rules_.algebra);
  EXPECT_NE(text.find("group 0"), std::string::npos);
  EXPECT_NE(text.find("JOIN(g"), std::string::npos);
  EXPECT_NE(text.find("A"), std::string::npos);
}

TEST_F(MicroOptimizerMore, RuleSetValidationCatchesMistakes) {
  // Cost property must exist.
  RuleSet broken;
  broken.algebra = rules_.algebra;
  broken.cost_prop = -1;
  EXPECT_FALSE(broken.Finalize().ok());
  // Physical property cannot be the cost property.
  broken.cost_prop = cost_;
  broken.phys_props = {cost_};
  EXPECT_FALSE(broken.Finalize().ok());
  // Enforcer must name an algorithm.
  RuleSet bad_enf;
  bad_enf.algebra = rules_.algebra;
  bad_enf.cost_prop = cost_;
  bad_enf.phys_props = {order_};
  Enforcer e;
  e.name = "bogus";
  e.alg = ret_;  // An operator, not an algorithm.
  e.prop = order_;
  bad_enf.enforcers.push_back(std::move(e));
  EXPECT_FALSE(bad_enf.Finalize().ok());
}

TEST_F(MicroOptimizerMore, UnfinalizedRuleSetIsARuleError) {
  // The rule loops walk the dispatch index Finalize() builds; a rule set
  // that skipped it is refused rather than searched with no rules.
  RuleSet raw;
  raw.name = "raw";
  raw.algebra = rules_.algebra;
  raw.cost_prop = cost_;
  raw.phys_props = rules_.phys_props;
  raw.trans_rules = std::move(rules_.trans_rules);
  raw.impl_rules = std::move(rules_.impl_rules);
  ExprPtr q = JoinOf(RetOf("A", 10), RetOf("B", 20), 5);
  Optimizer o(&raw, &catalog_);
  auto plan = o.Optimize(*q);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), common::StatusCode::kRuleError);
  Optimizer e(&raw, &catalog_);
  auto groups = e.ExpandOnly(*q);
  ASSERT_FALSE(groups.ok());
  EXPECT_EQ(groups.status().code(), common::StatusCode::kRuleError);
}

TEST_F(MicroOptimizerMore, PropSatisfiesSemantics) {
  Value none;
  Value dontcare = Value::Sort(SortSpec::DontCare());
  Value on_a = Value::Sort(SortSpec::On(Attr{"R", "a"}));
  SortSpec ab;
  ab.keys = {{Attr{"R", "a"}, true}, {Attr{"R", "b"}, true}};
  Value on_ab = Value::Sort(ab);
  EXPECT_TRUE(PropSatisfies(none, none));
  EXPECT_TRUE(PropSatisfies(none, dontcare));   // DONT_CARE wants nothing.
  EXPECT_TRUE(PropSatisfies(on_ab, on_a));      // Prefix satisfaction.
  EXPECT_FALSE(PropSatisfies(on_a, on_ab));
  EXPECT_FALSE(PropSatisfies(none, on_a));
  EXPECT_FALSE(PropSatisfies(dontcare, on_a));
  EXPECT_TRUE(PropSatisfies(Value::Int(3), Value::Int(3)));
  EXPECT_FALSE(PropSatisfies(Value::Int(3), Value::Int(4)));
}

// Observability: trace-event stream, per-rule profile, plan provenance,
// and per-optimizer store-stat deltas.

class ObservabilityTest : public MicroOptimizer {
 protected:
  static size_t CountKind(const std::vector<common::TraceEvent>& events,
                          common::TraceEventKind kind) {
    size_t n = 0;
    for (const common::TraceEvent& e : events) n += (e.kind == kind);
    return n;
  }
};

TEST_F(ObservabilityTest, StatsHelpersHandCounted) {
  OptimizerStats s;
  // Zero interning lookups: the hit rate is 0, not NaN.
  EXPECT_EQ(s.desc_lookups, 0u);
  EXPECT_EQ(s.InternHitRate(), 0.0);
  s.trans_matched = {1, 0, 1, 0};
  s.impl_matched = {0, 1, 1};
  EXPECT_EQ(s.NumTransMatched(), 2u);
  EXPECT_EQ(s.NumImplMatched(), 2u);
}

TEST_F(ObservabilityTest, MatchedFlagsFollowTheTinyRuleSet) {
  // A join query exercises every rule of the micro set: commute matches
  // the join, scan implements the RETs, nl implements the join.
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(o.stats().trans_matched.size(), 1u);
  ASSERT_EQ(o.stats().impl_matched.size(), 2u);
  EXPECT_EQ(o.stats().trans_matched[0], 1);  // commute
  EXPECT_EQ(o.stats().impl_matched[0], 1);   // scan
  EXPECT_EQ(o.stats().impl_matched[1], 1);   // nl
  EXPECT_EQ(o.stats().NumTransMatched(), 1u);
  EXPECT_EQ(o.stats().NumImplMatched(), 2u);
}

TEST_F(ObservabilityTest, TraceEventCountsMatchStatsCounters) {
  common::RingBufferSink sink;
  OptimizerOptions options;
  options.trace = &sink;
  Optimizer o(&rules_, &catalog_, options);
  Descriptor req = Desc();
  req.SetUnchecked(order_, Value::Sort(SortSpec::On(Attr{"R", "a"})));
  auto plan = o.Optimize(
      *JoinOf(JoinOf(RetOf("A", 10), RetOf("B", 20), 5), RetOf("C", 30), 2),
      req);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(sink.dropped(), 0u);
  const std::vector<common::TraceEvent> events = sink.Snapshot();
  const OptimizerStats& s = o.stats();
  EXPECT_EQ(CountKind(events, common::TraceEventKind::kTransAttempt),
            s.trans_attempts);
  EXPECT_EQ(CountKind(events, common::TraceEventKind::kTransFire),
            s.trans_fired);
  EXPECT_EQ(CountKind(events, common::TraceEventKind::kImplAttempt),
            s.impl_attempts);
  EXPECT_EQ(CountKind(events, common::TraceEventKind::kEnforcerAttempt),
            s.enforcer_attempts);
  EXPECT_EQ(CountKind(events, common::TraceEventKind::kPlanCosted),
            s.plans_costed);
  EXPECT_GT(CountKind(events, common::TraceEventKind::kWinnerSelected), 0u);
  // Spans carry durations and valid nesting depths; instants do not.
  for (const common::TraceEvent& e : events) {
    EXPECT_GE(e.depth, 0);
    if (!common::IsSpanKind(e.kind)) {
      EXPECT_EQ(e.dur_ns, 0u);
    }
  }
}

TEST_F(ObservabilityTest, TracingDoesNotChangeTheAnswer) {
  ExprPtr tree = JoinOf(RetOf("Big", 1000), RetOf("Small", 10), 500);
  Optimizer plain(&rules_, &catalog_);
  auto p1 = plain.Optimize(*tree);
  common::RingBufferSink sink;
  OptimizerOptions options;
  options.trace = &sink;
  Optimizer traced(&rules_, &catalog_, options);
  auto p2 = traced.Optimize(*tree->Clone());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_DOUBLE_EQ(p1->cost, p2->cost);
  EXPECT_EQ(plain.stats().trans_fired, traced.stats().trans_fired);
  EXPECT_GT(sink.total_emitted(), 0u);
}

TEST_F(ObservabilityTest, RuleProfileFiringsSumToStatsCounter) {
  common::RingBufferSink sink;
  OptimizerOptions options;
  options.trace = &sink;
  Optimizer o(&rules_, &catalog_, options);
  auto plan = o.Optimize(
      *JoinOf(JoinOf(RetOf("A", 10), RetOf("B", 20), 5), RetOf("C", 30), 2));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(sink.dropped(), 0u);
  RuleProfile profile = BuildRuleProfile(sink.Snapshot(), rules_);
  EXPECT_EQ(profile.TotalTransFired(), o.stats().trans_fired);
  ASSERT_EQ(profile.trans.size(), 1u);
  EXPECT_EQ(profile.trans[0].name, "commute");
  EXPECT_EQ(profile.trans[0].attempts, o.stats().trans_attempts);
  EXPECT_GT(profile.trans[0].self_ns, 0u);
  EXPECT_GE(profile.trans[0].self_ns, profile.trans[0].max_ns);
  // The profile names come from the rule set (the Prairie specification).
  std::string table = profile.ToTable();
  EXPECT_NE(table.find("commute"), std::string::npos);
  EXPECT_NE(table.find("scan"), std::string::npos);
  EXPECT_NE(table.find("nl"), std::string::npos);
}

TEST_F(ObservabilityTest, RuleProfileReportsSelfTime) {
  // An impl attempt over [0, 100] ns encloses the optimization of its input
  // group over [10, 70]: the rule's own time is the 40 ns left over. A sink
  // emits spans as they end (child first); BatchOptimizer's merge orders
  // them by start (parent first). Both orders must give the same answer.
  common::TraceEvent impl;
  impl.kind = common::TraceEventKind::kImplAttempt;
  impl.rule = 0;
  impl.ts_ns = 0;
  impl.dur_ns = 100;
  common::TraceEvent child;
  child.kind = common::TraceEventKind::kGroupOptimize;
  child.ts_ns = 10;
  child.dur_ns = 70 - 10;
  for (const auto& events : {std::vector<common::TraceEvent>{child, impl},
                             std::vector<common::TraceEvent>{impl, child}}) {
    const RuleProfile profile = BuildRuleProfile(events, rules_);
    EXPECT_EQ(profile.impl[0].attempts, 1u);
    EXPECT_EQ(profile.impl[0].self_ns, 40u);
    EXPECT_EQ(profile.impl[0].max_ns, 40u);
  }
}

TEST(RuleProfileTest, SelfTimesOfQ7AddUpToTheRootSpan) {
  // Inclusive attempt times counted every impl rule's input optimization
  // again, and the rows of Q7 at 3 joins summed to more than the search's
  // wall time. Self times partition it.
  auto prairie_rules = opt::BuildOodbPrairie();
  ASSERT_TRUE(prairie_rules.ok());
  auto rules = p2v::Translate(*prairie_rules, nullptr);
  ASSERT_TRUE(rules.ok());
  auto w = workload::MakeWorkload(*(*rules)->algebra,
                                  workload::PaperQuery(7, 3, 1));
  ASSERT_TRUE(w.ok());
  common::RingBufferSink sink;
  OptimizerOptions options;
  options.trace = &sink;
  Optimizer o(rules->get(), &w->catalog, options);
  ASSERT_TRUE(o.Optimize(*w->query).ok());
  const std::vector<common::TraceEvent> events = sink.Snapshot();
  // The root group's span is the outermost one and ends last, so it
  // survives even if the ring wrapped.
  uint64_t root_ns = 0;
  for (const common::TraceEvent& e : events) {
    if (e.kind == common::TraceEventKind::kGroupOptimize && e.depth == 0) {
      root_ns = std::max(root_ns, e.dur_ns);
    }
  }
  ASSERT_GT(root_ns, 0u);
  const RuleProfile profile =
      BuildRuleProfile(events, **rules, sink.dropped());
  uint64_t self_ns = 0;
  for (const auto* rows : {&profile.trans, &profile.impl, &profile.enforcers}) {
    for (const RuleProfileRow& r : *rows) self_ns += r.self_ns;
  }
  EXPECT_GT(self_ns, 0u);
  EXPECT_LE(self_ns, root_ns);
}

TEST_F(ObservabilityTest, ChromeTraceExportIsWellFormedJson) {
  common::RingBufferSink sink;
  OptimizerOptions options;
  options.trace = &sink;
  Optimizer o(&rules_, &catalog_, options);
  ASSERT_TRUE(o.Optimize(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5)).ok());
  const std::string path =
      ::testing::TempDir() + "prairie_trace_test.json";
  ASSERT_TRUE(WriteChromeTrace(path, sink.Snapshot(), rules_).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_EQ(text.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("T:commute"), std::string::npos);
  // The export closes with metadata carrying the ring's drop count.
  EXPECT_NE(text.find("\n],\"metadata\":{\"dropped_events\":0}}\n"),
            std::string::npos);
}

TEST_F(ObservabilityTest, ExplainWinnerWalksProvenanceChains) {
  // NL(Small, Big) wins, and the winning JOIN(small, big) expression was
  // created by the commute rule from the input JOIN(big, small).
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*JoinOf(RetOf("Big", 1000), RetOf("Small", 10), 500));
  ASSERT_TRUE(plan.ok());
  const std::string text = o.ExplainWinner();
  // The head of the chain: the winner was produced by the nl impl rule...
  EXPECT_NE(text.find("via impl_rule 'nl'"), std::string::npos) << text;
  // ...implementing an expression fired by the commute trans rule...
  EXPECT_NE(text.find("[from trans_rule 'commute']"), std::string::npos)
      << text;
  // ...derived from an expression copied in from the query.
  EXPECT_NE(text.find("[from input query]"), std::string::npos) << text;
  // Children chain down to scans over stored files.
  EXPECT_NE(text.find("via impl_rule 'scan'"), std::string::npos) << text;
  EXPECT_NE(text.find("via stored file"), std::string::npos) << text;
}

TEST_F(ObservabilityTest, ExplainWinnerShowsEnforcers) {
  Optimizer o(&rules_, &catalog_);
  Descriptor req = Desc();
  req.SetUnchecked(order_, Value::Sort(SortSpec::On(Attr{"R", "a"})));
  auto plan = o.Optimize(*RetOf("R", 64), req);
  ASSERT_TRUE(plan.ok());
  const std::string text = o.ExplainWinner();
  EXPECT_NE(text.find("via enforcer 'sorter'"), std::string::npos) << text;
  EXPECT_NE(text.find("via impl_rule 'scan'"), std::string::npos) << text;
}

TEST_F(ObservabilityTest, ExplainBeforeOptimizeIsHarmless) {
  Optimizer o(&rules_, &catalog_);
  EXPECT_EQ(o.ExplainWinner(), "(no optimized query to explain)\n");
}

TEST_F(ObservabilityTest, StoreStatsAreDeltasUnderASharedStore) {
  // Two optimizers sharing one store sequentially: each must report only
  // its own interning traffic, and the deltas must sum to the store's
  // global counters (the pre-fix behaviour double-counted: each optimizer
  // reported the global totals).
  algebra::DescriptorStore store(&rules_.algebra->properties());
  Optimizer a(&rules_, &catalog_, OptimizerOptions(), &store);
  ASSERT_TRUE(a.Optimize(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5)).ok());
  const uint64_t a_lookups = a.stats().desc_lookups;
  const uint64_t a_hits = a.stats().desc_hits;
  const size_t a_interned = a.stats().desc_interned;
  EXPECT_EQ(a_lookups, store.lookups());
  // The second optimizer starts AFTER the first finished; its deltas must
  // exclude everything the first one interned.
  Optimizer b(&rules_, &catalog_, OptimizerOptions(), &store);
  ASSERT_TRUE(b.Optimize(*JoinOf(RetOf("C", 30), RetOf("D", 40), 5)).ok());
  EXPECT_LT(b.stats().desc_lookups, store.lookups());
  EXPECT_EQ(a_lookups + b.stats().desc_lookups, store.lookups());
  EXPECT_EQ(a_hits + b.stats().desc_hits, store.hits());
  EXPECT_EQ(a_interned + b.stats().desc_interned, store.size());
}

/// Compares `got` against the committed golden file, or rewrites the
/// golden when PRAIRIE_REGEN_GOLDEN is set (run from a checkout so the
/// source tree is writable, then commit the diff).
void CheckGolden(const std::string& got, const std::string& name) {
  const std::string path = std::string(PRAIRIE_TEST_DIR "/golden/") + name;
  if (std::getenv("PRAIRIE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with PRAIRIE_REGEN_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "output drifted from " << path
      << " (regenerate with PRAIRIE_REGEN_GOLDEN=1 and review the diff)";
}

// Memo inspector: DOT/JSON dumps of the finished search space.

class InspectorTest : public MicroOptimizer {};

TEST_F(InspectorTest, GoldenDotAndJsonDumps) {
  // Deterministic micro search: serial store, fixed costs, no
  // requirement. Scan(A)=10, Scan(B)=20; NL(A,B)=10+10*20=210 beats the
  // commuted NL(B,A)=20+20*10=220.
  Optimizer o(&rules_, &catalog_);
  auto plan = o.Optimize(*JoinOf(RetOf("A", 10), RetOf("B", 20), 5));
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->cost, 210.0);
  CheckGolden(MemoToDot(o.memo(), rules_), "micro_memo.dot");
  CheckGolden(MemoToJson(o.memo(), rules_), "micro_memo.json");
}

TEST_F(InspectorTest, MergedGroupsAreCanonicalizedNotDuplicated) {
  Memo memo(&rules_, MemoLimits{});
  auto a = memo.CopyIn(*RetOf("A", 10));  // g0: file A, g1: RET(g0)
  auto b = memo.CopyIn(*RetOf("B", 20));  // g2: file B, g3: RET(g2)
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_NE(memo.Find(*a), memo.Find(*b));
  // Claim RET(B)'s expression is also a member of RET(A)'s group: the
  // memo must merge the two groups rather than store a duplicate.
  MExpr dup = memo.group(*b).exprs[0];
  auto inserted = memo.InsertInto(*a, dup);
  ASSERT_TRUE(inserted.ok());
  ASSERT_GE(memo.tallies().groups_merged, 1u);
  ASSERT_EQ(memo.Find(*a), memo.Find(*b));

  const std::string dot = MemoToDot(memo, rules_);
  const std::string json = MemoToJson(memo, rules_);
  // Exactly one node/object per live group; merged-away ids are neither
  // dropped silently (the live count must match) nor rendered twice.
  size_t dot_nodes = 0;
  std::vector<GroupId> live;
  for (size_t i = 0; i < memo.allocated_groups(); ++i) {
    const GroupId gid = static_cast<GroupId>(i);
    const std::string node_decl =
        "\n  g" + std::to_string(gid) + " [label=";
    const bool declared = dot.find(node_decl) != std::string::npos;
    if (memo.Find(gid) == gid) {
      live.push_back(gid);
      ++dot_nodes;
      EXPECT_TRUE(declared) << "live group g" << gid << " missing from DOT";
      EXPECT_NE(json.find("{\"id\": " + std::to_string(gid) + ","),
                std::string::npos)
          << "live group g" << gid << " missing from JSON";
    } else {
      EXPECT_FALSE(declared) << "merged-away g" << gid << " rendered";
      EXPECT_EQ(json.find("{\"id\": " + std::to_string(gid) + ","),
                std::string::npos)
          << "merged-away g" << gid << " rendered in JSON";
    }
  }
  EXPECT_EQ(dot_nodes, memo.NumGroups());
  EXPECT_EQ(live.size(), memo.NumGroups());
  // Every child reference in every live expression resolves to a live
  // representative, so all rendered edges point at rendered nodes.
  for (GroupId gid : live) {
    for (const MExpr& m : memo.group(gid).exprs) {
      for (GroupId c : m.children) {
        EXPECT_NE(std::find(live.begin(), live.end(), memo.Find(c)),
                  live.end());
      }
    }
  }
}

TEST_F(InspectorTest, WriteMemoDumpPicksFormatByExtension) {
  Memo memo(&rules_, MemoLimits{});
  ASSERT_TRUE(memo.CopyIn(*RetOf("A", 10)).ok());
  EXPECT_FALSE(WriteMemoDump("memo.svg", memo, rules_).ok());
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(WriteMemoDump(dir + "/m.dot", memo, rules_).ok());
  ASSERT_TRUE(WriteMemoDump(dir + "/m.json", memo, rules_).ok());
  std::ifstream dot(dir + "/m.dot");
  std::string first_line;
  ASSERT_TRUE(std::getline(dot, first_line));
  EXPECT_EQ(first_line, "digraph memo {");
}

// The inputs of the search-count golden: Q1-Q8 at 3 joins and Q1 over
// the three join-graph shapes.
std::vector<std::pair<std::string, workload::QuerySpec>> SearchCountCases() {
  std::vector<std::pair<std::string, workload::QuerySpec>> cases;
  for (int q = 1; q <= 8; ++q) {
    cases.emplace_back("Q" + std::to_string(q) + " joins=3",
                       workload::PaperQuery(q, 3, 1));
  }
  const std::tuple<const char*, workload::JoinShape, int> shapes[] = {
      {"chain", workload::JoinShape::kChain, 11},
      {"star", workload::JoinShape::kStar, 7},
      {"clique", workload::JoinShape::kClique, 5}};
  for (const auto& [name, shape, joins] : shapes) {
    workload::QuerySpec spec = workload::PaperQuery(1, joins, 1);
    spec.shape = shape;
    cases.emplace_back(
        "Q1 joins=" + std::to_string(joins) + " shape=" + name, spec);
  }
  return cases;
}

// Search-count golden: the interpreted OODB rule set's search statistics
// and plans (descriptors included) on the SearchCountCases() inputs. An
// engine change that keeps the search the same keeps this file
// byte-identical.
TEST(SearchCountGolden, OodbPaperQueriesAndJoinShapes) {
  auto prairie_rules = opt::BuildOodbPrairie();
  ASSERT_TRUE(prairie_rules.ok());
  auto rules = p2v::Translate(*prairie_rules, nullptr);
  ASSERT_TRUE(rules.ok());
  const Algebra& alg = *(*rules)->algebra;
  std::string got;
  for (const auto& [name, spec] : SearchCountCases()) {
    auto w = workload::MakeWorkload(alg, spec);
    ASSERT_TRUE(w.ok()) << name;
    Optimizer o(rules->get(), &w->catalog);
    auto plan = o.Optimize(*w->query);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    const OptimizerStats& s = o.stats();
    // Every binding the closure enumerates is attempted; none is skipped.
    // 48,030 is the attempt count of a memo that kept the duplicates
    // merges make and skipped their repeated bindings: dropping the
    // duplicates must not cost more attempts than that.
    if (name == "Q7 joins=3") {
      EXPECT_LE(s.trans_attempts, 48030u);
    }
    got += common::StringPrintf(
        "%s: groups=%zu mexprs=%zu trans_fired=%zu impl_attempts=%zu "
        "plans_costed=%zu desc_interned=%zu trans_attempts=%zu cost=%.4f\n",
        name.c_str(), s.groups, s.mexprs, s.trans_fired, s.impl_attempts,
        s.plans_costed, s.desc_interned, s.trans_attempts, plan->cost);
    got += plan->root->ToExpr(alg)->TreeString(alg);
  }
  CheckGolden(got, "search_counts.txt");
}

// The memo stays canonical through a full search: no two live expressions
// are equal on op or file, arg_key and canonical children, and NumExprs()
// counts exactly the live ones.
TEST(CanonicalMemo, NoLiveDuplicatesAfterEachSearchCountInput) {
  auto prairie_rules = opt::BuildOodbPrairie();
  ASSERT_TRUE(prairie_rules.ok());
  auto rules = p2v::Translate(*prairie_rules, nullptr);
  ASSERT_TRUE(rules.ok());
  for (const auto& [name, spec] : SearchCountCases()) {
    auto w = workload::MakeWorkload(*(*rules)->algebra, spec);
    ASSERT_TRUE(w.ok()) << name;
    Optimizer o(rules->get(), &w->catalog);
    ASSERT_TRUE(o.Optimize(*w->query).ok()) << name;
    const Memo& memo = o.memo();
    using Identity = std::tuple<bool, OpId, std::string, algebra::DescriptorId,
                                std::vector<GroupId>>;
    std::map<Identity, GroupId> seen;
    size_t live = 0;
    for (size_t i = 0; i < memo.allocated_groups(); ++i) {
      const GroupId gid = static_cast<GroupId>(i);
      if (memo.Find(gid) != gid) continue;
      for (const MExpr& m : memo.group(gid).exprs) {
        if (m.dead) continue;
        ++live;
        std::vector<GroupId> kids;
        for (GroupId c : m.children) kids.push_back(memo.Find(c));
        const auto [it, fresh] = seen.emplace(
            Identity(m.is_file, m.op, m.file, m.arg_key, std::move(kids)),
            gid);
        EXPECT_TRUE(fresh) << name << ": g" << gid << " repeats an expression"
                           << " of g" << it->second;
      }
    }
    EXPECT_EQ(live, memo.NumExprs()) << name;
  }
}

TEST_F(ObservabilityTest, MetricsCountersMatchStatsAcrossQueries) {
  common::MetricsRegistry registry;
  VolcanoMetrics metrics = VolcanoMetrics::ForRegistry(&registry);
  algebra::DescriptorStore store(&rules_.algebra->properties());
  PlanCache cache(&store);
  OptimizerOptions options;
  options.metrics = &metrics;
  options.plan_cache = &cache;
  Optimizer o(&rules_, &catalog_, options, &store);
  const ExprPtr queries[] = {JoinOf(RetOf("A", 10), RetOf("B", 20), 5),
                             JoinOf(RetOf("C", 30), RetOf("D", 40), 10)};
  for (const ExprPtr& q : queries) {
    ASSERT_TRUE(o.Optimize(*q).ok());
    // The ledger accumulates over both calls, so every counter equals its
    // row's quantity after each one: the second flush must add deltas,
    // not re-add the first query's totals.
    for (size_t i = 0; i < VolcanoMetrics::kNumCounters; ++i) {
      const VolcanoMetrics::CounterRow& row = VolcanoMetrics::CounterRows()[i];
      EXPECT_EQ(metrics.counters[i]->Value(), row.read(o.stats())) << row.name;
    }
  }
  const OptimizerStats& s = o.stats();
  EXPECT_EQ(metrics.queries->Value(), 2u);
  EXPECT_GT(s.trans_attempts, 0u);
  EXPECT_EQ(s.cache_probes, 2u);
  EXPECT_EQ(s.cache_inserts, 2u);
  // The ledger mirrors the memo's tallies and the store's counters.
  const MemoTallies& t = o.memo().tallies();
  EXPECT_EQ(s.memo.groups_created, t.groups_created);
  EXPECT_EQ(s.memo.groups_merged, t.groups_merged);
  EXPECT_EQ(s.memo.exprs_inserted, t.exprs_inserted);
  EXPECT_EQ(s.memo.exprs_deduped, t.exprs_deduped);
  const auto counters = store.Counters();
  EXPECT_EQ(s.desc_hits, counters.hits);
  EXPECT_EQ(s.desc_lookups - s.desc_hits, counters.misses());
  // Both query latencies observed, whatever the durations were.
  EXPECT_EQ(metrics.query_latency_ns->Snapshot().count, 2u);
}

// ---------------------------------------------------------------------------
// Anytime budgets.

class BudgetTest : public MicroOptimizer {
 protected:
  ExprPtr Chain4() {
    return JoinOf(JoinOf(JoinOf(RetOf("A", 50), RetOf("B", 40), 35),
                         RetOf("C", 30), 20),
                  RetOf("D", 25), 10);
  }
};

TEST_F(BudgetTest, UnreachedBudgetIsByteIdenticalToNoBudget) {
  Optimizer plain(&rules_, &catalog_);
  auto ref = plain.Optimize(*Chain4());
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(plain.stats().budget_exhausted);

  OptimizerOptions opts;
  opts.search_budget_ms = 1e9;  // Armed, never reached.
  opts.group_budget = 1u << 30;
  Optimizer budgeted(&rules_, &catalog_, opts);
  auto plan = budgeted.Optimize(*Chain4());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(budgeted.stats().budget_exhausted);
  EXPECT_DOUBLE_EQ(plan->cost, ref->cost);
  EXPECT_EQ(plan->root->ToString(*rules_.algebra),
            ref->root->ToString(*rules_.algebra));
  // An unreached budget is invisible: the identical search ran.
  EXPECT_EQ(budgeted.stats().mexprs, plain.stats().mexprs);
  EXPECT_EQ(budgeted.stats().trans_fired, plain.stats().trans_fired);
  EXPECT_EQ(budgeted.stats().plans_costed, plain.stats().plans_costed);
}

TEST_F(BudgetTest, GroupBudgetReturnsValidPossiblySuboptimalPlan) {
  Optimizer plain(&rules_, &catalog_);
  auto ref = plain.Optimize(*Chain4());
  ASSERT_TRUE(ref.ok());

  OptimizerOptions opts;
  opts.group_budget = 1;  // Exhausted after the initial CopyIn.
  Optimizer budgeted(&rules_, &catalog_, opts);
  auto plan = budgeted.Optimize(*Chain4());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(budgeted.stats().budget_exhausted);
  // Valid plan over the truncated space: never better than the optimum.
  EXPECT_GE(plan->cost, ref->cost);
  EXPECT_GT(plan->cost, 0);
  // The truncated search expanded strictly less.
  EXPECT_LT(budgeted.stats().trans_fired, plain.stats().trans_fired);
}

TEST_F(BudgetTest, InfeasibleCostLimitStillFailsUnderBudget) {
  // failed_limit bookkeeping is untouched by budgets: an initial cost
  // limit below every feasible plan fails the same way.
  OptimizerOptions opts;
  opts.initial_cost_limit = 5;
  opts.group_budget = 1u << 30;
  opts.search_budget_ms = 1e9;
  Optimizer o(&rules_, &catalog_, opts);
  auto plan = o.Optimize(*RetOf("R", 100));
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), common::StatusCode::kOptimizeError);
}

TEST_F(BudgetTest, BudgetExhaustedPlansAreNotCached) {
  algebra::DescriptorStore store(&rules_.algebra->properties(),
                                 algebra::StoreMode::kSerial);
  PlanCache cache(&store);

  OptimizerOptions opts;
  opts.plan_cache = &cache;
  opts.group_budget = 1;
  Optimizer budgeted(&rules_, &catalog_, opts, &store);
  auto truncated = budgeted.Optimize(*Chain4());
  ASSERT_TRUE(truncated.ok());
  ASSERT_TRUE(budgeted.stats().budget_exhausted);
  // A possibly-suboptimal plan must not poison the cache.
  EXPECT_EQ(cache.size(), 0u);

  OptimizerOptions full;
  full.plan_cache = &cache;
  Optimizer unbudgeted(&rules_, &catalog_, full, &store);
  auto best = unbudgeted.Optimize(*Chain4());
  ASSERT_TRUE(best.ok());
  EXPECT_FALSE(unbudgeted.stats().budget_exhausted);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_LE(best->cost, truncated->cost);
}

}  // namespace
}  // namespace prairie::volcano
