// Unit tests for the execution engine: tables, predicate evaluation, and
// every physical iterator.

#include <gtest/gtest.h>

#include "common/trace.h"
#include "exec/builder.h"
#include "exec/eval.h"
#include "exec/operators.h"
#include "exec/stats.h"

namespace prairie::exec {
namespace {

using algebra::Attr;
using algebra::CmpOp;
using algebra::Predicate;
using algebra::PredicateRef;
using algebra::Scalar;
using algebra::SortSpec;
using algebra::Term;

Attr A(const std::string& cls, const std::string& name) {
  return Attr{cls, name};
}

Table MakeEmp() {
  RowSchema schema;
  schema.attrs = {A("Emp", "oid"), A("Emp", "dept"), A("Emp", "salary")};
  Table t("Emp", schema);
  // oid, dept, salary
  EXPECT_TRUE(t.Append({Datum::Int(0), Datum::Int(10), Datum::Int(100)}).ok());
  EXPECT_TRUE(t.Append({Datum::Int(1), Datum::Int(20), Datum::Int(200)}).ok());
  EXPECT_TRUE(t.Append({Datum::Int(2), Datum::Int(10), Datum::Int(300)}).ok());
  EXPECT_TRUE(t.Append({Datum::Int(3), Datum::Int(30), Datum::Int(150)}).ok());
  return t;
}

Table MakeDept() {
  RowSchema schema;
  schema.attrs = {A("Dept", "oid"), A("Dept", "id"), A("Dept", "name")};
  Table t("Dept", schema);
  EXPECT_TRUE(
      t.Append({Datum::Int(0), Datum::Int(10), Datum::Str("eng")}).ok());
  EXPECT_TRUE(
      t.Append({Datum::Int(1), Datum::Int(20), Datum::Str("hr")}).ok());
  EXPECT_TRUE(
      t.Append({Datum::Int(2), Datum::Int(40), Datum::Str("ops")}).ok());
  return t;
}

std::vector<Row> Drain(IterPtr it) {
  auto rows = CollectAll(it.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Row>{};
}

// ---------------------------------------------------------------------------
// Datum / predicate evaluation
// ---------------------------------------------------------------------------

TEST(Datum, TotalOrder) {
  EXPECT_LT(CompareDatum(Datum::Null(), Datum::Int(0)), 0);
  EXPECT_EQ(CompareDatum(Datum::Int(2), Datum::Real(2.0)), 0);
  EXPECT_GT(CompareDatum(Datum::Str("b"), Datum::Str("a")), 0);
  EXPECT_LT(CompareDatum(Datum::Int(5), Datum::Str("a")), 0);  // Type rank.
}

TEST(EvalPredicate, ComparisonsAndConnectives) {
  RowSchema schema;
  schema.attrs = {A("T", "x"), A("T", "y")};
  Row row{Datum::Int(5), Datum::Int(7)};
  auto eval = [&](const PredicateRef& p) {
    auto r = EvalPredicate(p, row, schema);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && *r;
  };
  EXPECT_TRUE(eval(Predicate::EqConst(A("T", "x"), Scalar::Int(5))));
  EXPECT_FALSE(eval(Predicate::EqConst(A("T", "x"), Scalar::Int(6))));
  EXPECT_TRUE(eval(Predicate::Cmp(CmpOp::kLt, Term::MakeAttr(A("T", "x")),
                                  Term::MakeAttr(A("T", "y")))));
  EXPECT_TRUE(eval(Predicate::And(
      {Predicate::EqConst(A("T", "x"), Scalar::Int(5)),
       Predicate::Cmp(CmpOp::kGe, Term::MakeAttr(A("T", "y")),
                      Term::MakeConst(Scalar::Int(7)))})));
  EXPECT_TRUE(eval(Predicate::Or({Predicate::False(),
                                  Predicate::EqConst(A("T", "y"),
                                                     Scalar::Int(7))})));
  EXPECT_TRUE(eval(Predicate::Not(Predicate::False())));
  EXPECT_TRUE(eval(nullptr));
}

TEST(EvalPredicate, UnknownAttributeFails) {
  RowSchema schema;
  schema.attrs = {A("T", "x")};
  Row row{Datum::Int(1)};
  auto r = EvalPredicate(Predicate::EqConst(A("T", "z"), Scalar::Int(1)),
                         row, schema);
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, AppendChecksWidth) {
  Table t = MakeEmp();
  EXPECT_FALSE(t.Append({Datum::Int(9)}).ok());
}

TEST(Table, IndexLookupAndOrder) {
  Table t = MakeEmp();
  ASSERT_TRUE(t.BuildIndex("dept").ok());
  EXPECT_TRUE(t.HasIndex("dept"));
  auto rows = *t.IndexLookup("dept", Datum::Int(10));
  EXPECT_EQ(rows.size(), 2u);
  auto order = *t.IndexOrder("dept");
  ASSERT_EQ(order.size(), 4u);
  // Value order: 10,10,20,30 -> rows 0,2,1,3.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], 3u);
  EXPECT_FALSE(t.IndexLookup("salary", Datum::Int(1)).ok());
}

TEST(Table, AppendAfterIndexRejected) {
  Table t = MakeEmp();
  ASSERT_TRUE(t.BuildIndex("dept").ok());
  EXPECT_FALSE(
      t.Append({Datum::Int(4), Datum::Int(1), Datum::Int(2)}).ok());
}

TEST(Database, AddAndRequire) {
  Database db;
  ASSERT_TRUE(db.AddTable(MakeEmp()).ok());
  EXPECT_FALSE(db.AddTable(MakeEmp()).ok());
  EXPECT_TRUE(db.Require("Emp").ok());
  EXPECT_FALSE(db.Require("Nope").ok());
}

// ---------------------------------------------------------------------------
// Iterators
// ---------------------------------------------------------------------------

TEST(Iterators, TableScanReturnsAllRows) {
  Table t = MakeEmp();
  EXPECT_EQ(Drain(MakeTableScan(&t)).size(), 4u);
}

TEST(Iterators, FilterSelects) {
  Table t = MakeEmp();
  auto rows = Drain(MakeFilter(
      MakeTableScan(&t), Predicate::EqConst(A("Emp", "dept"),
                                            Scalar::Int(10))));
  EXPECT_EQ(rows.size(), 2u);
}

TEST(Iterators, IndexScanEqualityAndOrder) {
  Table t = MakeEmp();
  ASSERT_TRUE(t.BuildIndex("dept").ok());
  auto eq = Drain(MakeIndexScan(&t, "dept", Datum::Int(10), nullptr));
  EXPECT_EQ(eq.size(), 2u);
  auto ordered = Drain(MakeIndexScan(&t, "dept", std::nullopt, nullptr));
  ASSERT_EQ(ordered.size(), 4u);
  for (size_t i = 1; i < ordered.size(); ++i) {
    EXPECT_LE(CompareDatum(ordered[i - 1][1], ordered[i][1]), 0);
  }
  // Residual applies after the lookup.
  auto filtered = Drain(MakeIndexScan(
      &t, "dept", Datum::Int(10),
      Predicate::Cmp(CmpOp::kGt, Term::MakeAttr(A("Emp", "salary")),
                     Term::MakeConst(Scalar::Int(150)))));
  EXPECT_EQ(filtered.size(), 1u);
}

TEST(Iterators, ProjectKeepsRequestedColumns) {
  Table t = MakeEmp();
  auto rows =
      Drain(MakeProject(MakeTableScan(&t), {A("Emp", "salary")}));
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].size(), 1u);
  EXPECT_EQ(rows[0][0], Datum::Int(100));
}

TEST(Iterators, ProjectUnknownAttributeFailsAtOpen) {
  Table t = MakeEmp();
  IterPtr it = MakeProject(MakeTableScan(&t), {A("Emp", "nope")});
  EXPECT_FALSE(it->Open().ok());
}

PredicateRef DeptJoinPred() {
  return Predicate::EqAttrs(A("Emp", "dept"), A("Dept", "id"));
}

TEST(Iterators, JoinVariantsAgree) {
  Table emp = MakeEmp();
  Table dept = MakeDept();
  auto nl = Drain(MakeNestedLoopsJoin(MakeTableScan(&emp),
                                      MakeTableScan(&dept), DeptJoinPred()));
  auto hash = Drain(MakeHashJoin(MakeTableScan(&emp), MakeTableScan(&dept),
                                 DeptJoinPred()));
  // Merge join needs sorted inputs.
  auto merge = Drain(MakeMergeJoin(
      MakeSort(MakeTableScan(&emp), SortSpec::On(A("Emp", "dept"))),
      MakeSort(MakeTableScan(&dept), SortSpec::On(A("Dept", "id"))),
      DeptJoinPred()));
  // Emp dept 10 x2 match eng; dept 20 matches hr; dept 30 unmatched.
  EXPECT_EQ(nl.size(), 3u);
  EXPECT_TRUE(SameResult(nl, hash));
  EXPECT_TRUE(SameResult(nl, merge));
}

TEST(Iterators, MergeJoinDuplicateKeysOnBothSides) {
  RowSchema s1;
  s1.attrs = {A("L", "k")};
  Table l("L", s1);
  ASSERT_TRUE(l.Append({Datum::Int(1)}).ok());
  ASSERT_TRUE(l.Append({Datum::Int(1)}).ok());
  ASSERT_TRUE(l.Append({Datum::Int(2)}).ok());
  RowSchema s2;
  s2.attrs = {A("R", "k")};
  Table r("R", s2);
  ASSERT_TRUE(r.Append({Datum::Int(1)}).ok());
  ASSERT_TRUE(r.Append({Datum::Int(1)}).ok());
  ASSERT_TRUE(r.Append({Datum::Int(3)}).ok());
  auto pred = Predicate::EqAttrs(A("L", "k"), A("R", "k"));
  auto rows = Drain(MakeMergeJoin(MakeTableScan(&l), MakeTableScan(&r), pred));
  EXPECT_EQ(rows.size(), 4u);  // 2x2 matches on key 1.
  auto nl = Drain(
      MakeNestedLoopsJoin(MakeTableScan(&l), MakeTableScan(&r), pred));
  EXPECT_TRUE(SameResult(rows, nl));
}

TEST(Iterators, MergeJoinWithoutEquiKeyFails) {
  Table emp = MakeEmp();
  Table dept = MakeDept();
  IterPtr it = MakeMergeJoin(MakeTableScan(&emp), MakeTableScan(&dept),
                             Predicate::True());
  EXPECT_FALSE(it->Open().ok());
}

TEST(Iterators, HashJoinFallsBackToCrossProduct) {
  Table emp = MakeEmp();
  Table dept = MakeDept();
  auto rows = Drain(MakeHashJoin(MakeTableScan(&emp), MakeTableScan(&dept),
                                 Predicate::True()));
  EXPECT_EQ(rows.size(), 12u);  // 4 x 3 cross product.
}

TEST(Iterators, SortOrdersRows) {
  Table t = MakeEmp();
  auto rows =
      Drain(MakeSort(MakeTableScan(&t), SortSpec::On(A("Emp", "salary"))));
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(CompareDatum(rows[i - 1][2], rows[i][2]), 0);
  }
  SortSpec desc = SortSpec::On(A("Emp", "salary"), /*ascending=*/false);
  auto drows = Drain(MakeSort(MakeTableScan(&t), desc));
  EXPECT_EQ(drows[0][2], Datum::Int(300));
}

TEST(Iterators, DerefFollowsOids) {
  // Emp.dept doubles as an OID into a target table here.
  RowSchema s;
  s.attrs = {A("E", "oid"), A("E", "ref")};
  Table e("E", s);
  ASSERT_TRUE(e.Append({Datum::Int(0), Datum::Int(2)}).ok());
  ASSERT_TRUE(e.Append({Datum::Int(1), Datum::Int(0)}).ok());
  ASSERT_TRUE(e.Append({Datum::Int(2), Datum::Int(99)}).ok());  // Dangling.
  Table d = MakeDept();
  auto rows = Drain(MakeDeref(MakeTableScan(&e), A("E", "ref"), &d));
  ASSERT_EQ(rows.size(), 2u);  // Dangling ref dropped.
  EXPECT_EQ(rows[0].size(), 5u);  // E columns + Dept columns.
  EXPECT_EQ(rows[0][4], Datum::Str("ops"));  // ref 2 -> Dept row 2.
}

TEST(Iterators, FlattenExpandsSetValues) {
  RowSchema s;
  s.attrs = {A("C", "oid"), A("C", "tags")};
  Table c("C", s);
  ASSERT_TRUE(c.Append({Datum::Int(0), Datum::Null()}).ok());
  ASSERT_TRUE(c.Append({Datum::Int(1), Datum::Null()}).ok());
  ASSERT_TRUE(c.SetSetValues("tags", 0,
                             {Datum::Int(7), Datum::Int(8)}).ok());
  // Row 1 has no set values: it produces no output.
  auto rows = Drain(MakeFlatten(MakeTableScan(&c), A("C", "tags"), &c));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Datum::Int(7));
  EXPECT_EQ(rows[1][1], Datum::Int(8));
}

TEST(Iterators, UnnestScanAppliesResidual) {
  RowSchema s;
  s.attrs = {A("C", "oid"), A("C", "tags")};
  Table c("C", s);
  ASSERT_TRUE(c.Append({Datum::Int(0), Datum::Null()}).ok());
  ASSERT_TRUE(c.SetSetValues(
                   "tags", 0, {Datum::Int(1), Datum::Int(5), Datum::Int(9)})
                  .ok());
  auto rows = Drain(MakeUnnestScan(
      &c, "tags",
      Predicate::Cmp(CmpOp::kGt, Term::MakeAttr(A("C", "tags")),
                     Term::MakeConst(Scalar::Int(2)))));
  EXPECT_EQ(rows.size(), 2u);  // 5 and 9.
}

TEST(Canonicalize, SameResultIsMultisetEquality) {
  std::vector<Row> a{{Datum::Int(1)}, {Datum::Int(2)}, {Datum::Int(1)}};
  std::vector<Row> b{{Datum::Int(2)}, {Datum::Int(1)}, {Datum::Int(1)}};
  std::vector<Row> c{{Datum::Int(2)}, {Datum::Int(1)}};
  EXPECT_TRUE(SameResult(a, b));
  EXPECT_FALSE(SameResult(a, c));
}

// ---------------------------------------------------------------------------
// Builder / registry
// ---------------------------------------------------------------------------

TEST(ExecutorRegistry, UnknownAlgorithmFails) {
  algebra::Algebra algebra;
  auto alg = *algebra.RegisterAlgorithm("Mystery", 1);
  algebra::PropertySchema schema;
  Database db;
  std::vector<algebra::ExprPtr> kids;
  kids.push_back(algebra::Expr::MakeFile("T", algebra::Descriptor(&schema)));
  auto plan = algebra::Expr::MakeOp(alg, std::move(kids),
                                    algebra::Descriptor(&schema));
  ExecutorRegistry reg;
  auto it = reg.Build(*plan, algebra, db);
  EXPECT_FALSE(it.ok());
  EXPECT_EQ(it.status().code(), common::StatusCode::kNotFound);
}

TEST(ExecutorRegistry, LogicalPlanRejected) {
  algebra::Algebra algebra;
  auto op = *algebra.RegisterOperator("RET", 1);
  algebra::PropertySchema schema;
  Database db;
  std::vector<algebra::ExprPtr> kids;
  kids.push_back(algebra::Expr::MakeFile("T", algebra::Descriptor(&schema)));
  auto plan = algebra::Expr::MakeOp(op, std::move(kids),
                                    algebra::Descriptor(&schema));
  ExecutorRegistry reg;
  auto it = reg.Build(*plan, algebra, db);
  ASSERT_FALSE(it.ok());
  EXPECT_NE(it.status().message().find("not an algorithm"),
            std::string::npos);
}

TEST(ExecutorRegistry, DuplicateRegistrationRejected) {
  ExecutorRegistry reg;
  auto factory = [](const algebra::Expr&,
                    PlanBuilder&) -> common::Result<IterPtr> {
    return common::Status::Internal("unused");
  };
  ASSERT_TRUE(reg.Register("X", factory).ok());
  EXPECT_FALSE(reg.Register("X", factory).ok());
}

// ---------------------------------------------------------------------------
// Runtime stats (ExecStats / InstrumentedIterator / metrics)
// ---------------------------------------------------------------------------

/// A two-algorithm executable algebra: Filter(Scan(Emp)) with the filter
/// selecting dept == 10 — known selectivity 2 of 4 on MakeEmp(), so
/// Q-errors are exact when estimates are planted in `num_records`.
struct StatsFixture {
  algebra::Algebra algebra;
  algebra::PropertySchema schema;
  Database db;
  ExecutorRegistry registry;
  algebra::OpId scan = -1;
  algebra::OpId filter = -1;

  StatsFixture() {
    EXPECT_TRUE(
        schema.Add("num_records", algebra::ValueType::kReal).ok());
    scan = *algebra.RegisterAlgorithm("Scan", 1);
    filter = *algebra.RegisterAlgorithm("Filter", 1);
    EXPECT_TRUE(db.AddTable(MakeEmp()).ok());
    EXPECT_TRUE(registry
                    .Register("Scan",
                              [](const algebra::Expr&,
                                 PlanBuilder& b) -> common::Result<IterPtr> {
                                auto t = b.ChildTable(0);
                                if (!t.ok()) return t.status();
                                return MakeTableScan(*t);
                              })
                    .ok());
    EXPECT_TRUE(registry
                    .Register("Filter",
                              [](const algebra::Expr&,
                                 PlanBuilder& b) -> common::Result<IterPtr> {
                                auto child = b.BuildChild(0);
                                if (!child.ok()) return child.status();
                                return MakeFilter(
                                    std::move(*child),
                                    Predicate::EqConst(A("Emp", "dept"),
                                                       Scalar::Int(10)));
                              })
                    .ok());
  }

  algebra::Descriptor Desc(double est_rows) {
    algebra::Descriptor d(&schema);
    EXPECT_TRUE(
        d.Set("num_records", algebra::Value::Real(est_rows)).ok());
    return d;
  }

  /// Filter[est=filter_est](Scan[est=scan_est](Emp)).
  algebra::ExprPtr Plan(double scan_est, double filter_est) {
    std::vector<algebra::ExprPtr> leaf;
    leaf.push_back(
        algebra::Expr::MakeFile("Emp", algebra::Descriptor(&schema)));
    std::vector<algebra::ExprPtr> scan_kids;
    scan_kids.push_back(algebra::Expr::MakeOp(scan, std::move(leaf),
                                              Desc(scan_est)));
    return algebra::Expr::MakeOp(filter, std::move(scan_kids),
                                 Desc(filter_est));
  }
};

TEST(ExecStats, InstrumentedExecutionIsResultIdentical) {
  StatsFixture f;
  auto plan = f.Plan(4, 2);
  auto plain = f.registry.Build(*plan, f.algebra, f.db);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ExecStats stats;
  auto instrumented = f.registry.Build(*plan, f.algebra, f.db, &stats);
  ASSERT_TRUE(instrumented.ok()) << instrumented.status().ToString();
  auto plain_rows = Drain(std::move(*plain));
  auto inst_rows = Drain(std::move(*instrumented));
  EXPECT_EQ(plain_rows.size(), 2u);
  EXPECT_TRUE(SameResult(plain_rows, inst_rows));
}

TEST(ExecStats, NullCollectorBuildsPlainTree) {
  StatsFixture f;
  auto plan = f.Plan(4, 2);
  auto it = f.registry.Build(*plan, f.algebra, f.db, nullptr);
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(Drain(std::move(*it)).size(), 2u);
}

TEST(ExecStats, RowCountsMatchCollectAllSizes) {
  StatsFixture f;
  auto plan = f.Plan(4, 2);
  ExecStats stats;
  auto it = f.registry.Build(*plan, f.algebra, f.db, &stats);
  ASSERT_TRUE(it.ok());
  auto rows = Drain(std::move(*it));
  ASSERT_NE(stats.root(), nullptr);
  const OpStats& filter = *stats.root();
  EXPECT_EQ(filter.alg, "Filter");
  EXPECT_EQ(filter.rows, rows.size());
  // CollectAll drains to exhaustion: one extra Next() call returns false.
  EXPECT_EQ(filter.next_calls, rows.size() + 1);
  ASSERT_EQ(filter.children.size(), 1u);
  const OpStats& scan = *filter.children[0];
  EXPECT_EQ(scan.alg, "Scan");
  EXPECT_EQ(scan.rows, 4u);  // The filter drains the whole table.
  EXPECT_EQ(scan.depth, 1);
  EXPECT_EQ(stats.TotalRows(), filter.rows + scan.rows);
  // Open/Close ran, so the operator lifetime spans are non-degenerate.
  EXPECT_GT(filter.first_open_ns, 0u);
  EXPECT_GE(filter.last_close_ns, filter.first_open_ns);
}

TEST(ExecStats, QErrorExactOnKnownSelectivity) {
  StatsFixture f;
  // The planted estimates: scan exact (4 of 4), filter off by the known
  // selectivity (estimate 4, actual 2 -> Q-error exactly 2).
  auto plan = f.Plan(4, 4);
  ExecStats stats;
  auto it = f.registry.Build(*plan, f.algebra, f.db, &stats);
  ASSERT_TRUE(it.ok());
  Drain(std::move(*it));
  ASSERT_NE(stats.root(), nullptr);
  EXPECT_DOUBLE_EQ(stats.root()->QError(), 2.0);
  EXPECT_DOUBLE_EQ(stats.root()->children[0]->QError(), 1.0);
  // Symmetric: underestimates score the same.
  OpStats under;
  under.est_rows = 1;
  under.rows = 2;
  EXPECT_DOUBLE_EQ(under.QError(), 2.0);
  // No estimate -> no Q-error; empty actuals clamp to one row.
  OpStats none;
  EXPECT_DOUBLE_EQ(none.QError(), 0.0);
  OpStats empty;
  empty.est_rows = 8;
  empty.rows = 0;
  EXPECT_DOUBLE_EQ(empty.QError(), 8.0);
}

TEST(ExecStats, TextAndJsonRenderTheTree) {
  StatsFixture f;
  auto plan = f.Plan(4, 4);
  ExecStats stats;
  auto it = f.registry.Build(*plan, f.algebra, f.db, &stats);
  ASSERT_TRUE(it.ok());
  Drain(std::move(*it));
  const std::string text = stats.ToText();
  EXPECT_NE(text.find("Filter  est=4  act=2  q=2.00"), std::string::npos);
  EXPECT_NE(text.find("  Scan  est=4  act=4  q=1.00"), std::string::npos);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"alg\":\"Filter\""), std::string::npos);
  EXPECT_NE(json.find("\"est_rows\":4,\"qerror\":2,\"rows\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"total_rows\":6"), std::string::npos);
}

TEST(ExecStats, EmitTraceReplaysTheRunIntoASink) {
  StatsFixture f;
  auto plan = f.Plan(4, 4);
  ExecStats stats;
  auto it = f.registry.Build(*plan, f.algebra, f.db, &stats);
  ASSERT_TRUE(it.ok());
  Drain(std::move(*it));
  common::RingBufferSink sink(64);
  stats.EmitTrace(&sink);
  size_t query_spans = 0, op_spans = 0, qerrors = 0;
  for (const common::TraceEvent& e : sink.Snapshot()) {
    if (e.kind == common::TraceEventKind::kExecQuery) ++query_spans;
    if (e.kind == common::TraceEventKind::kExecOperator) ++op_spans;
    if (e.kind == common::TraceEventKind::kExecQError) ++qerrors;
  }
  EXPECT_EQ(query_spans, 1u);
  EXPECT_EQ(op_spans, 2u);   // Filter + Scan.
  EXPECT_EQ(qerrors, 2u);    // Both nodes carry estimates.
  // An empty collector emits nothing.
  ExecStats idle;
  common::RingBufferSink empty_sink(8);
  idle.EmitTrace(&empty_sink);
  EXPECT_EQ(empty_sink.total_emitted(), 0u);
}

TEST(ExecMetrics, FlushAggregatesIntoRegistry) {
  StatsFixture f;
  auto plan = f.Plan(4, 4);
  ExecStats stats;
  auto it = f.registry.Build(*plan, f.algebra, f.db, &stats);
  ASSERT_TRUE(it.ok());
  auto rows = Drain(std::move(*it));
  common::MetricsRegistry reg;
  ExecMetrics metrics = ExecMetrics::ForRegistry(&reg);
  metrics.FlushExecStats(stats);
  EXPECT_EQ(metrics.queries->Value(), 1u);
  EXPECT_EQ(metrics.operators->Value(), 2u);
  EXPECT_EQ(metrics.rows->Value(), stats.TotalRows());
  EXPECT_EQ(metrics.next_calls->Value(), stats.TotalNextCalls());
  EXPECT_EQ(metrics.query_latency_ns->Snapshot().count, 1u);
  // Q-errors 2 (filter) and 1 (scan) land in log-2 buckets 2 and 1.
  const common::HistogramSnapshot q = metrics.qerror->Snapshot();
  EXPECT_EQ(q.count, 2u);
  EXPECT_EQ(q.counts[1], 1u);
  EXPECT_EQ(q.counts[2], 1u);
  (void)rows;
}

}  // namespace
}  // namespace prairie::exec
