// Unit tests for the Prairie core: the action language (expressions,
// statements, evaluation), helper registry, rule structures and rule-set
// validation.

#include <gtest/gtest.h>

#include "core/action.h"
#include "core/helpers.h"
#include "core/rules.h"
#include "core/ruleset.h"

namespace prairie::core {
namespace {

using algebra::Algebra;
using algebra::Descriptor;
using algebra::PatNode;
using algebra::PropertySchema;
using algebra::SortSpec;
using algebra::Value;
using algebra::ValueType;
using common::Status;

class ActionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.Add("cost", ValueType::kReal, true).ok());
    ASSERT_TRUE(schema_.Add("num_records", ValueType::kReal).ok());
    ASSERT_TRUE(schema_.Add("tuple_order", ValueType::kSort).ok());
    d1_ = Descriptor(&schema_);
    d2_ = Descriptor(&schema_);
    d3_ = Descriptor(&schema_);
    helpers_ = HelperRegistry::WithBuiltins();
    ctx_.slots = {&d1_, &d2_, &d3_};
    ctx_.helpers = helpers_.get();
  }

  EvalResult Ev(const ActionExprPtr& e) {
    auto r = Eval(*e, ctx_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : EvalResult{};
  }

  PropertySchema schema_;
  Descriptor d1_, d2_, d3_;
  std::shared_ptr<HelperRegistry> helpers_;
  EvalContext ctx_;
};

TEST_F(ActionTest, ConstAndArithmetic) {
  auto e = ActionExpr::Binary(
      BinOp::kAdd, ActionExpr::Const(Value::Int(2)),
      ActionExpr::Binary(BinOp::kMul, ActionExpr::Const(Value::Int(3)),
                         ActionExpr::Const(Value::Int(4))));
  EXPECT_EQ(Ev(e).value, Value::Int(14));
}

TEST_F(ActionTest, IntArithmeticStaysIntRealWidens) {
  auto int_sum = ActionExpr::Binary(BinOp::kSub,
                                    ActionExpr::Const(Value::Int(5)),
                                    ActionExpr::Const(Value::Int(3)));
  EXPECT_EQ(Ev(int_sum).value.type(), ValueType::kInt);
  auto real_sum = ActionExpr::Binary(BinOp::kAdd,
                                     ActionExpr::Const(Value::Real(1.5)),
                                     ActionExpr::Const(Value::Int(1)));
  EXPECT_EQ(Ev(real_sum).value.type(), ValueType::kReal);
}

TEST_F(ActionTest, DivisionByZeroFails) {
  auto e = ActionExpr::Binary(BinOp::kDiv, ActionExpr::Const(Value::Int(1)),
                              ActionExpr::Const(Value::Int(0)));
  EXPECT_FALSE(Eval(*e, ctx_).ok());
}

TEST_F(ActionTest, Comparisons) {
  auto lt = ActionExpr::Binary(BinOp::kLt, ActionExpr::Const(Value::Int(1)),
                               ActionExpr::Const(Value::Real(1.5)));
  EXPECT_EQ(Ev(lt).value, Value::Bool(true));
  auto eq = ActionExpr::Binary(
      BinOp::kEq, ActionExpr::Const(Value::Sort(SortSpec::DontCare())),
      ActionExpr::Const(Value::Sort(SortSpec::DontCare())));
  EXPECT_EQ(Ev(eq).value, Value::Bool(true));
}

TEST_F(ActionTest, BooleanShortCircuit) {
  // The right side would fail (reading an unset property through a
  // helper); short-circuiting must avoid evaluating it.
  auto bad = ActionExpr::Binary(BinOp::kDiv, ActionExpr::Const(Value::Int(1)),
                                ActionExpr::Const(Value::Int(0)));
  auto e = ActionExpr::Binary(BinOp::kAnd,
                              ActionExpr::Const(Value::Bool(false)), bad);
  EXPECT_EQ(Ev(e).value, Value::Bool(false));
  auto e2 = ActionExpr::Binary(BinOp::kOr,
                               ActionExpr::Const(Value::Bool(true)), bad);
  EXPECT_EQ(Ev(e2).value, Value::Bool(true));
}

TEST_F(ActionTest, UnaryOps) {
  auto not_true =
      ActionExpr::Unary(UnOp::kNot, ActionExpr::Const(Value::Bool(true)));
  EXPECT_EQ(Ev(not_true).value, Value::Bool(false));
  auto neg = ActionExpr::Unary(UnOp::kNeg, ActionExpr::Const(Value::Int(3)));
  EXPECT_EQ(Ev(neg).value, Value::Int(-3));
}

TEST_F(ActionTest, PropReadAndAssign) {
  ASSERT_TRUE(d1_.Set("num_records", Value::Real(100)).ok());
  ActionStmt stmt;
  stmt.target_slot = 2;  // D3
  stmt.target_prop = "cost";
  stmt.value = ActionExpr::Binary(BinOp::kMul,
                                  ActionExpr::Prop(0, "num_records"),
                                  ActionExpr::Const(Value::Int(2)));
  ASSERT_TRUE(Execute(stmt, ctx_).ok());
  EXPECT_DOUBLE_EQ(d3_.Get("cost")->AsReal(), 200.0);
}

TEST_F(ActionTest, WholeDescriptorCopy) {
  ASSERT_TRUE(d1_.Set("num_records", Value::Real(5)).ok());
  ActionStmt stmt;
  stmt.target_slot = 1;
  stmt.value = ActionExpr::Desc(0);
  ASSERT_TRUE(Execute(stmt, ctx_).ok());
  EXPECT_EQ(d2_, d1_);
}

TEST_F(ActionTest, WholeDescriptorCopyRequiresDescriptorRhs) {
  ActionStmt stmt;
  stmt.target_slot = 1;
  stmt.value = ActionExpr::Const(Value::Int(1));
  EXPECT_EQ(Execute(stmt, ctx_).code(), common::StatusCode::kTypeError);
}

TEST_F(ActionTest, DescriptorCannotBeAssignedToProperty) {
  ActionStmt stmt;
  stmt.target_slot = 1;
  stmt.target_prop = "cost";
  stmt.value = ActionExpr::Desc(0);
  EXPECT_EQ(Execute(stmt, ctx_).code(), common::StatusCode::kTypeError);
}

TEST_F(ActionTest, UnboundSlotFails) {
  ctx_.slots[0] = nullptr;
  auto e = ActionExpr::Prop(0, "cost");
  EXPECT_FALSE(Eval(*e, ctx_).ok());
}

TEST_F(ActionTest, EvalTestDefaultsTrue) {
  EXPECT_TRUE(*EvalTest(nullptr, ctx_));
  EXPECT_FALSE(*EvalTest(ActionExpr::Const(Value::Bool(false)), ctx_));
}

TEST_F(ActionTest, ToStringRendering) {
  auto e = ActionExpr::Binary(BinOp::kAdd, ActionExpr::Prop(3, "cost"),
                              ActionExpr::Call("log", {ActionExpr::Prop(
                                                          3, "num_records")}));
  EXPECT_EQ(e->ToString(), "(D4.cost + log(D4.num_records))");
  ActionStmt s;
  s.target_slot = 4;
  s.target_prop = "cost";
  s.value = e;
  EXPECT_EQ(s.ToString(), "D5.cost = (D4.cost + log(D4.num_records));");
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

TEST_F(ActionTest, BuiltinMathHelpers) {
  auto call = [&](const char* fn, std::vector<ActionExprPtr> args) {
    return Ev(ActionExpr::Call(fn, std::move(args))).value;
  };
  EXPECT_DOUBLE_EQ(call("log", {ActionExpr::Const(Value::Real(1.0))}).AsReal(),
                   0.0);
  EXPECT_DOUBLE_EQ(
      call("log2", {ActionExpr::Const(Value::Real(8.0))}).AsReal(), 3.0);
  EXPECT_DOUBLE_EQ(
      call("min", {ActionExpr::Const(Value::Int(4)),
                   ActionExpr::Const(Value::Int(2))})
          .AsReal(),
      2.0);
  EXPECT_DOUBLE_EQ(
      call("max", {ActionExpr::Const(Value::Int(4)),
                   ActionExpr::Const(Value::Int(2))})
          .AsReal(),
      4.0);
  EXPECT_DOUBLE_EQ(
      call("pow", {ActionExpr::Const(Value::Int(2)),
                   ActionExpr::Const(Value::Int(10))})
          .AsReal(),
      1024.0);
  EXPECT_DOUBLE_EQ(
      call("abs", {ActionExpr::Const(Value::Real(-2.5))}).AsReal(), 2.5);
  EXPECT_DOUBLE_EQ(
      call("ceil", {ActionExpr::Const(Value::Real(1.2))}).AsReal(), 2.0);
  EXPECT_DOUBLE_EQ(
      call("floor", {ActionExpr::Const(Value::Real(1.8))}).AsReal(), 1.0);
}

TEST(HelperRegistry, UnknownHelperFails) {
  auto reg = HelperRegistry::WithBuiltins();
  EvalContext ctx;
  ctx.helpers = reg.get();
  EXPECT_FALSE(reg->Invoke("nope", {}, ctx).ok());
}

TEST(HelperRegistry, ArityChecked) {
  auto reg = HelperRegistry::WithBuiltins();
  EvalContext ctx;
  ctx.helpers = reg.get();
  EXPECT_EQ(reg->Invoke("log", {}, ctx).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(HelperRegistry, DuplicateRegistrationRejected) {
  auto reg = HelperRegistry::WithBuiltins();
  auto fn = [](std::span<const EvalResult>,
               const EvalContext&) -> common::Result<Value> {
    return Value::Int(1);
  };
  EXPECT_FALSE(reg->Register("log", 1, fn).ok());
  EXPECT_TRUE(reg->Register("custom", 0, fn).ok());
  EXPECT_TRUE(reg->Contains("custom"));
}

// ---------------------------------------------------------------------------
// Rule-set validation
// ---------------------------------------------------------------------------

class RuleSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rules_.algebra = std::make_shared<Algebra>();
    rules_.helpers = HelperRegistry::WithBuiltins();
    auto* schema = rules_.algebra->mutable_properties();
    ASSERT_TRUE(schema->Add("cost", ValueType::kReal, true).ok());
    ASSERT_TRUE(schema->Add("tuple_order", ValueType::kSort).ok());
    join_ = *rules_.algebra->RegisterOperator("JOIN", 2);
    sort_ = *rules_.algebra->RegisterOperator("SORT", 1);
    nl_ = *rules_.algebra->RegisterAlgorithm("Nested_loops", 2);
    ms_ = *rules_.algebra->RegisterAlgorithm("Merge_sort", 1);
  }

  TRule CommuteRule() {
    TRule r;
    r.name = "commute";
    r.lhs = PatNode::Op(join_, 2, [] {
      std::vector<algebra::PatNodePtr> kids;
      kids.push_back(PatNode::Stream(1, 0));
      kids.push_back(PatNode::Stream(2, 1));
      return kids;
    }());
    r.rhs = PatNode::Op(join_, 3, [] {
      std::vector<algebra::PatNodePtr> kids;
      kids.push_back(PatNode::Stream(2, 1));
      kids.push_back(PatNode::Stream(1, 0));
      return kids;
    }());
    ActionStmt copy;
    copy.target_slot = 3;
    copy.value = ActionExpr::Desc(2);
    r.post_test.push_back(copy);
    r.num_slots = 4;
    return r;
  }

  RuleSet rules_;
  algebra::OpId join_, sort_, nl_, ms_;
};

TEST_F(RuleSetTest, ValidRuleSetPasses) {
  rules_.trules.push_back(CommuteRule());
  IRule ir = MakeIRuleSkeleton("nl", *rules_.algebra, join_, nl_, {true});
  ActionStmt s;
  s.target_slot = ir.alg_slot;
  s.target_prop = "cost";
  s.value = ActionExpr::Const(Value::Real(1));
  ir.post_opt.push_back(s);
  rules_.irules.push_back(std::move(ir));
  EXPECT_TRUE(rules_.Validate().ok()) << rules_.Validate().ToString();
}

TEST_F(RuleSetTest, LhsDescriptorAssignmentRejected) {
  TRule r = CommuteRule();
  // Assigning D3 (the LHS JOIN descriptor) violates the model.
  r.post_test[0].target_slot = 2;
  rules_.trules.push_back(std::move(r));
  common::Status st = rules_.Validate();
  EXPECT_EQ(st.code(), common::StatusCode::kRuleError);
  EXPECT_NE(st.message().find("never changed"), std::string::npos);
}

TEST_F(RuleSetTest, RhsOnlyStreamRejected) {
  TRule r = CommuteRule();
  r.rhs->children[0]->stream_var = 3;  // ?3 not bound on the LHS.
  rules_.trules.push_back(std::move(r));
  EXPECT_FALSE(rules_.Validate().ok());
}

TEST_F(RuleSetTest, NonLinearLhsRejected) {
  TRule r = CommuteRule();
  r.lhs->children[1]->stream_var = 1;   // ?1 twice.
  r.lhs->children[1]->desc_slot = 5;
  rules_.trules.push_back(std::move(r));
  EXPECT_FALSE(rules_.Validate().ok());
}

TEST_F(RuleSetTest, UnknownPropertyRejected) {
  TRule r = CommuteRule();
  r.post_test[0].target_prop = "no_such_property";
  r.post_test[0].value = ActionExpr::Const(Value::Int(1));
  rules_.trules.push_back(std::move(r));
  EXPECT_FALSE(rules_.Validate().ok());
}

TEST_F(RuleSetTest, UnknownHelperRejected) {
  TRule r = CommuteRule();
  r.test = ActionExpr::Call("mystery_fn", {});
  rules_.trules.push_back(std::move(r));
  EXPECT_FALSE(rules_.Validate().ok());
}

TEST_F(RuleSetTest, AlgorithmInTRuleRejected) {
  TRule r = CommuteRule();
  r.rhs->op = nl_;
  rules_.trules.push_back(std::move(r));
  common::Status st = rules_.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("abstract operators"), std::string::npos);
}

TEST_F(RuleSetTest, IRuleTestCannotReadFreshSlots) {
  IRule ir = MakeIRuleSkeleton("nl", *rules_.algebra, join_, nl_, {true});
  // The test runs before pre-opt: D4 (fresh) is not yet bound.
  ir.test = ActionExpr::Prop(ir.rhs_input_slots[0], "cost");
  rules_.irules.push_back(std::move(ir));
  EXPECT_FALSE(rules_.Validate().ok());
}

TEST_F(RuleSetTest, IRuleArityMismatchRejected) {
  IRule ir = MakeIRuleSkeleton("bad", *rules_.algebra, sort_, nl_, {});
  ir.arity = 1;  // SORT is unary but Nested_loops is binary.
  ir.rhs_input_slots = {0};
  rules_.irules.push_back(std::move(ir));
  EXPECT_FALSE(rules_.Validate().ok());
}

TEST_F(RuleSetTest, EnforcerOperatorDetection) {
  // SORT -> Null makes SORT an enforcer-operator.
  IRule null_rule =
      MakeIRuleSkeleton("null_sort", *rules_.algebra, sort_,
                        rules_.algebra->null_alg(), {true});
  rules_.irules.push_back(std::move(null_rule));
  IRule ms = MakeIRuleSkeleton("merge_sort", *rules_.algebra, sort_, ms_, {});
  rules_.irules.push_back(std::move(ms));
  auto enforcers = rules_.EnforcerOperators();
  ASSERT_EQ(enforcers.size(), 1u);
  EXPECT_EQ(enforcers[0], sort_);
  EXPECT_TRUE(rules_.IsEnforcerOperator(sort_));
  EXPECT_FALSE(rules_.IsEnforcerOperator(join_));
  EXPECT_EQ(rules_.IRulesFor(sort_).size(), 2u);
}

TEST_F(RuleSetTest, DuplicateRuleNamesRejected) {
  rules_.trules.push_back(CommuteRule());
  rules_.trules.push_back(CommuteRule());
  EXPECT_FALSE(rules_.Validate().ok());
}

TEST_F(RuleSetTest, ToStringMentionsEverything) {
  rules_.trules.push_back(CommuteRule());
  std::string text = rules_.ToString();
  EXPECT_NE(text.find("JOIN"), std::string::npos);
  EXPECT_NE(text.find("commute"), std::string::npos);
  EXPECT_NE(text.find("property cost : cost"), std::string::npos);
}

TEST(IRuleSkeleton, SlotLayout) {
  Algebra algebra;
  auto join = *algebra.RegisterOperator("JOIN", 2);
  auto nl = *algebra.RegisterAlgorithm("Nested_loops", 2);
  IRule r = MakeIRuleSkeleton("nl", algebra, join, nl, {true, false});
  EXPECT_EQ(r.arity, 2);
  EXPECT_EQ(r.op_slot(), 2);
  EXPECT_EQ(r.rhs_input_slots, (std::vector<int>{3, 1}));
  EXPECT_EQ(r.alg_slot, 4);
  EXPECT_EQ(r.num_slots, 5);
  EXPECT_TRUE(r.input_reannotated(0));
  EXPECT_FALSE(r.input_reannotated(1));
}

}  // namespace
}  // namespace prairie::core
