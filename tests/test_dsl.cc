// Unit tests for the DSL lexer and parser, including diagnostics.

#include <gtest/gtest.h>

#include "dsl/lexer.h"
#include "dsl/parser.h"

namespace prairie::dsl {
namespace {

core::RuleSet MustParse(const std::string& src) {
  auto r = ::prairie::dsl::ParseRuleSet(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueUnsafe();
}

using core::ActionExpr;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

std::vector<TokKind> KindsOf(const std::string& src) {
  auto toks = Tokenize(src);
  EXPECT_TRUE(toks.ok()) << toks.status().ToString();
  std::vector<TokKind> out;
  if (toks.ok()) {
    for (const Token& t : *toks) out.push_back(t.kind);
  }
  return out;
}

TEST(Lexer, BasicTokens) {
  auto kinds = KindsOf("foo ( ) 12 3.5 \"str\" => == != <= >= && || ! ;");
  std::vector<TokKind> expected{
      TokKind::kIdent, TokKind::kLParen, TokKind::kRParen, TokKind::kInt,
      TokKind::kReal,  TokKind::kString, TokKind::kArrow,  TokKind::kEq,
      TokKind::kNe,    TokKind::kLe,     TokKind::kGe,     TokKind::kAndAnd,
      TokKind::kOrOr,  TokKind::kBang,   TokKind::kSemi,   TokKind::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, NumbersAndValues) {
  auto toks = *Tokenize("42 2.5 1e3 2.5e-2");
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_DOUBLE_EQ(toks[1].real_value, 2.5);
  EXPECT_DOUBLE_EQ(toks[2].real_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks[3].real_value, 0.025);
}

TEST(Lexer, CommentsSkipped) {
  auto kinds = KindsOf("a // line comment\n b /* block\n comment */ c");
  EXPECT_EQ(kinds.size(), 4u);  // a b c END
}

TEST(Lexer, StringEscapes) {
  auto toks = *Tokenize(R"("a\nb\"c")");
  EXPECT_EQ(toks[0].text, "a\nb\"c");
}

TEST(Lexer, PositionsTracked) {
  auto toks = *Tokenize("a\n  b");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].col, 3);
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("/* unterminated").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
  EXPECT_FALSE(Tokenize("a & b").ok());
  auto st = Tokenize("\n\n  #").status();
  EXPECT_NE(st.message().find("line 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

constexpr const char* kMiniSpec = R"(
property tuple_order : sortspec;
property num_records : real;
property cost : cost;

operator JOIN(2);
operator SORT(1);
algorithm Nested_loops(2);
algorithm Merge_sort(1);

trule commute: JOIN[D3](?1, ?2) => JOIN[D4](?2, ?1) {
  post { D4 = D3; }
}

irule nl: JOIN[D3](?1, ?2) => Nested_loops[D5](?1:D4, ?2) {
  preopt {
    D5 = D3;
    D4 = D1;
    D4.tuple_order = D3.tuple_order;
  }
  postopt { D5.cost = D4.cost + D4.num_records * D2.cost; }
}

irule ms: SORT[D2](?1) => Merge_sort[D3](?1) {
  test D2.tuple_order != DONT_CARE;
  preopt { D3 = D2; }
  postopt { D3.cost = D1.cost + D3.num_records * log(D3.num_records); }
}

irule null_sort: SORT[D2](?1) => Null[D4](?1:D3) {
  preopt { D4 = D2; D3 = D1; D3.tuple_order = D2.tuple_order; }
  postopt { D4.cost = D3.cost; }
}
)";

TEST(Parser, ParsesMiniSpec) {
  auto rules = ParseRuleSet(kMiniSpec);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->trules.size(), 1u);
  EXPECT_EQ(rules->irules.size(), 3u);
  EXPECT_EQ(rules->algebra->properties().size(), 3);
  EXPECT_TRUE(rules->algebra->properties().decl(2).is_cost);
}

TEST(Parser, PatternSlotsFollowPaperConvention) {
  auto rules = MustParse(kMiniSpec);
  const core::TRule& commute = rules.trules[0];
  // LHS streams default to D1/D2 (slots 0/1); JOIN carries D3 (slot 2).
  EXPECT_EQ(commute.lhs->desc_slot, 2);
  EXPECT_EQ(commute.lhs->children[0]->desc_slot, 0);
  EXPECT_EQ(commute.lhs->children[1]->desc_slot, 1);
  // RHS JOIN has fresh D4; streams keep their LHS descriptors.
  EXPECT_EQ(commute.rhs->desc_slot, 3);
  EXPECT_EQ(commute.rhs->children[0]->desc_slot, 1);  // ?2 keeps D2.
  EXPECT_EQ(commute.num_slots, 4);
}

TEST(Parser, IRuleLayout) {
  auto rules = MustParse(kMiniSpec);
  const core::IRule& nl = rules.irules[0];
  EXPECT_EQ(rules.algebra->name(nl.op), "JOIN");
  EXPECT_EQ(rules.algebra->name(nl.alg), "Nested_loops");
  EXPECT_EQ(nl.arity, 2);
  EXPECT_EQ(nl.op_slot(), 2);
  EXPECT_EQ(nl.rhs_input_slots, (std::vector<int>{3, 1}));
  EXPECT_EQ(nl.alg_slot, 4);
  EXPECT_TRUE(nl.input_reannotated(0));
  EXPECT_FALSE(nl.input_reannotated(1));
  EXPECT_EQ(nl.pre_opt.size(), 3u);
  EXPECT_EQ(nl.post_opt.size(), 1u);
  EXPECT_EQ(nl.post_opt[0].ToString(),
            "D5.cost = (D4.cost + (D4.num_records * D2.cost));");
}

TEST(Parser, TestExpressionParsed) {
  auto rules = MustParse(kMiniSpec);
  const core::IRule& ms = rules.irules[1];
  ASSERT_NE(ms.test, nullptr);
  EXPECT_EQ(ms.test->ToString(), "(D2.tuple_order != DONT_CARE)");
}

TEST(Parser, NullAlgorithmRecognized) {
  auto rules = MustParse(kMiniSpec);
  EXPECT_EQ(rules.irules[2].alg, rules.algebra->null_alg());
  EXPECT_TRUE(rules.IsEnforcerOperator(rules.irules[2].op));
}

TEST(Parser, OperatorPrecedence) {
  auto rules = MustParse(R"(
property cost : cost;
operator O(1);
algorithm A(1);
irule r: O[D2](?1) => A[D3](?1) {
  test 1 + 2 * 3 == 7 && !(2 > 3) || false;
  postopt { D3.cost = 0; }
}
)");
  // ((1 + (2*3)) == 7 && !(2>3)) || false
  EXPECT_EQ(rules.irules[0].test->ToString(),
            "((((1 + (2 * 3)) == 7) && !((2 > 3))) || false)");
}

struct ErrorCase {
  const char* name;
  const char* src;
  const char* expect_substr;
};

// Without this, gtest prints an ErrorCase as its raw bytes, i.e. the string
// addresses, which move with every run; the listed test names (and so the
// ctest names) then change from build to build. Print the case name instead.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class ParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrorTest, ReportsError) {
  auto r = ParseRuleSet(GetParam().src);
  ASSERT_FALSE(r.ok()) << "expected failure for " << GetParam().name;
  EXPECT_NE(r.status().message().find(GetParam().expect_substr),
            std::string::npos)
      << r.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Diagnostics, ParserErrorTest,
    ::testing::Values(
        ErrorCase{"bad_top_level", "banana;", "expected 'property'"},
        ErrorCase{"bad_type", "property x : banana;", "unknown property type"},
        ErrorCase{"dup_property",
                  "property x : int; property x : int;", "duplicate"},
        ErrorCase{"unknown_op_in_rule",
                  "property cost : cost;\n"
                  "trule t: FOO[D2](?1) => FOO[D3](?1) {}",
                  "unknown operation"},
        ErrorCase{"missing_desc",
                  "property cost : cost; operator J(2);\n"
                  "trule t: J(?1, ?2) => J[D4](?2, ?1) {}",
                  "expected '['"},
        ErrorCase{"rhs_unbound_stream",
                  "property cost : cost; operator J(2);\n"
                  "trule t: J[D3](?1, ?2) => J[D4](?3, ?1) {}",
                  "does not occur on the LHS"},
        ErrorCase{"irule_stream_order",
                  "property cost : cost; operator J(2); algorithm A(2);\n"
                  "irule r: J[D3](?2, ?1) => A[D4](?1, ?2) {}",
                  "in order"},
        ErrorCase{"arity_mismatch",
                  "property cost : cost; operator J(2); algorithm A(2);\n"
                  "trule t: J[D2](?1) => J[D3](?1) {}",
                  "arity"},
        ErrorCase{"assign_lhs_descriptor",
                  "property cost : cost; operator J(2);\n"
                  "trule t: J[D3](?1, ?2) => J[D4](?2, ?1) {"
                  " post { D3.cost = 1; } }",
                  "never changed"},
        ErrorCase{"unknown_helper",
                  "property cost : cost; operator J(2); algorithm A(2);\n"
                  "irule r: J[D3](?1, ?2) => A[D4](?1, ?2) {"
                  " test frobnicate(D3.cost); }",
                  "unknown helper"},
        ErrorCase{"missing_semicolon",
                  "property cost : cost\noperator J(2);", "';'"}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) {
      return info.param.name;
    });

TEST(Parser, ErrorsCarryLineNumbers) {
  auto r = ParseRuleSet("property x : int;\nproperty y banana;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(Parser, ShippedSpecsRoundTripThroughToString) {
  // ToString of a parsed rule set mentions every rule name.
  auto rules = MustParse(kMiniSpec);
  std::string text = rules.ToString();
  for (const char* name : {"commute", "nl", "ms", "null_sort"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace prairie::dsl
