#include "exec/stats.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace prairie::exec {

using common::Status;
using common::TraceEvent;
using common::TraceEventKind;

double OpStats::QError() const {
  if (est_rows < 0) return 0;
  const double est = std::max(est_rows, 1.0);
  const double act = std::max(static_cast<double>(rows), 1.0);
  return std::max(est / act, act / est);
}

OpStats* ExecStats::NewNode(std::string alg, int op, double est_rows,
                            OpStats* parent, int child_index) {
  nodes_.emplace_back();
  OpStats* node = &nodes_.back();
  node->alg = std::move(alg);
  node->op = op;
  node->est_rows = est_rows;
  node->child_index = child_index;
  if (parent == nullptr) {
    root_ = node;
    node->depth = 0;
  } else {
    node->depth = parent->depth + 1;
    // Factories may build children in any order; keep plan order.
    auto pos = std::upper_bound(
        parent->children.begin(), parent->children.end(), child_index,
        [](int idx, const OpStats* c) { return idx < c->child_index; });
    parent->children.insert(pos, node);
  }
  return node;
}

uint64_t ExecStats::TotalRows() const {
  uint64_t total = 0;
  for (const OpStats& n : nodes_) total += n.rows;
  return total;
}

uint64_t ExecStats::TotalNextCalls() const {
  uint64_t total = 0;
  for (const OpStats& n : nodes_) total += n.next_calls;
  return total;
}

namespace {

void AppendTextRec(const OpStats& n, std::string* out) {
  out->append(static_cast<size_t>(n.depth) * 2, ' ');
  *out += n.alg;
  if (n.est_rows >= 0) {
    *out += common::StringPrintf("  est=%s", common::FormatDouble(n.est_rows).c_str());
  } else {
    *out += "  est=?";
  }
  *out += common::StringPrintf("  act=%llu",
                               static_cast<unsigned long long>(n.rows));
  if (n.est_rows >= 0) {
    *out += common::StringPrintf("  q=%.2f", n.QError());
  }
  *out += common::StringPrintf(
      "  elapsed_ns=%llu  next=%llu\n",
      static_cast<unsigned long long>(n.ElapsedNs()),
      static_cast<unsigned long long>(n.next_calls));
  for (const OpStats* c : n.children) AppendTextRec(*c, out);
}

void AppendJsonRec(const OpStats& n, std::string* out) {
  *out += "{\"alg\":\"" + common::JsonEscape(n.alg) + "\"";
  *out += common::StringPrintf(",\"op\":%d", n.op);
  if (n.est_rows >= 0) {
    *out += ",\"est_rows\":" + common::FormatDouble(n.est_rows);
    *out += common::StringPrintf(",\"qerror\":%.6g", n.QError());
  } else {
    *out += ",\"est_rows\":null,\"qerror\":null";
  }
  *out += common::StringPrintf(
      ",\"rows\":%llu,\"next_calls\":%llu,\"elapsed_ns\":%llu"
      ",\"open_ns\":%llu,\"next_ns_est\":%llu,\"close_ns\":%llu",
      static_cast<unsigned long long>(n.rows),
      static_cast<unsigned long long>(n.next_calls),
      static_cast<unsigned long long>(n.ElapsedNs()),
      static_cast<unsigned long long>(n.open_ns),
      static_cast<unsigned long long>(n.EstimatedNextNs()),
      static_cast<unsigned long long>(n.close_ns));
  *out += ",\"children\":[";
  const char* sep = "";
  for (const OpStats* c : n.children) {
    *out += sep;
    sep = ",";
    AppendJsonRec(*c, out);
  }
  *out += "]}";
}

void EmitTraceRec(const OpStats& n, uint32_t tid, common::TraceSink* sink) {
  TraceEvent span;
  span.kind = TraceEventKind::kExecOperator;
  span.desc = n.op;
  span.depth = n.depth;
  span.tid = tid;
  span.cost = static_cast<double>(n.rows);
  span.ts_ns = n.first_open_ns;
  span.dur_ns = n.ElapsedNs();
  sink->Emit(span);
  if (n.est_rows >= 0) {
    TraceEvent q;
    q.kind = TraceEventKind::kExecQError;
    q.desc = n.op;
    q.depth = n.depth;
    q.tid = tid;
    q.cost = n.QError();
    q.ts_ns = n.last_close_ns;
    sink->Emit(q);
  }
  for (const OpStats* c : n.children) EmitTraceRec(*c, tid, sink);
}

void ObserveQErrors(const OpStats& n, common::Histogram* h) {
  if (n.est_rows >= 0) {
    h->Observe(static_cast<uint64_t>(std::llround(n.QError())));
  }
  for (const OpStats* c : n.children) ObserveQErrors(*c, h);
}

}  // namespace

std::string ExecStats::ToText() const {
  if (root_ == nullptr) return "(no execution stats collected)\n";
  std::string out;
  AppendTextRec(*root_, &out);
  return out;
}

std::string ExecStats::ToJson() const {
  std::string out = "{\"total_rows\":";
  out += common::StringPrintf("%llu",
                              static_cast<unsigned long long>(TotalRows()));
  out += common::StringPrintf(
      ",\"total_next_calls\":%llu",
      static_cast<unsigned long long>(TotalNextCalls()));
  out += ",\"plan\":";
  if (root_ == nullptr) {
    out += "null";
  } else {
    AppendJsonRec(*root_, &out);
  }
  out += "}";
  return out;
}

void ExecStats::EmitTrace(common::TraceSink* sink) const {
  if (sink == nullptr || root_ == nullptr) return;
  if (root_->first_open_ns == 0 && root_->last_close_ns == 0) return;
  const uint32_t tid = common::TraceThreadId();
  TraceEvent query;
  query.kind = TraceEventKind::kExecQuery;
  query.desc = root_->op;
  query.tid = tid;
  query.cost = static_cast<double>(root_->rows);
  query.ts_ns = root_->first_open_ns;
  query.dur_ns = root_->ElapsedNs();
  sink->Emit(query);
  EmitTraceRec(*root_, tid, sink);
}

common::Status InstrumentedIterator::Open() {
  const uint64_t t0 = common::TraceNowNs();
  if (stats_->first_open_ns == 0) stats_->first_open_ns = t0;
  Status s = inner_->Open();
  stats_->open_ns += common::TraceNowNs() - t0;
  return s;
}

common::Result<bool> InstrumentedIterator::Next(Row* out) {
  ++stats_->next_calls;
  if ((stats_->next_calls & (kNextSamplePeriod - 1)) == 0) {
    const uint64_t t0 = common::TraceNowNs();
    common::Result<bool> r = inner_->Next(out);
    stats_->sampled_next_ns += common::TraceNowNs() - t0;
    ++stats_->sampled_next_calls;
    if (r.ok() && *r) ++stats_->rows;
    return r;
  }
  common::Result<bool> r = inner_->Next(out);
  if (r.ok() && *r) ++stats_->rows;
  return r;
}

common::Status InstrumentedIterator::Close() {
  const uint64_t t0 = common::TraceNowNs();
  Status s = inner_->Close();
  const uint64_t t1 = common::TraceNowNs();
  stats_->close_ns += t1 - t0;
  stats_->last_close_ns = t1;
  return s;
}

ExecMetrics ExecMetrics::ForRegistry(common::MetricsRegistry* registry) {
  ExecMetrics m;
  if (registry == nullptr) return m;
  m.queries = registry->GetCounter("prairie_exec_queries_total",
                                   "Queries executed to completion.");
  m.operators = registry->GetCounter(
      "prairie_exec_operators_total",
      "Operator instances run (algorithm nodes of executed plans).");
  m.rows = registry->GetCounter("prairie_exec_rows_total",
                                "Rows produced across all operators.");
  m.next_calls = registry->GetCounter(
      "prairie_exec_next_calls_total",
      "Iterator Next() invocations across all operators.");
  m.query_latency_ns = registry->GetHistogram(
      "prairie_exec_query_latency_ns",
      "Whole-query execution wall time (first open to last close), ns.");
  m.qerror = registry->GetHistogram(
      "prairie_exec_qerror",
      "Per-operator cardinality Q-error max(est/act, act/est), rounded; "
      "log-2 buckets read as within-2x, within-4x, ...");
  return m;
}

void ExecMetrics::FlushExecStats(const ExecStats& stats) const {
  const OpStats* root = stats.root();
  if (root == nullptr) return;
  if (queries != nullptr) queries->Inc();
  if (operators != nullptr) operators->Inc(stats.num_nodes());
  if (rows != nullptr) rows->Inc(stats.TotalRows());
  if (next_calls != nullptr) next_calls->Inc(stats.TotalNextCalls());
  if (query_latency_ns != nullptr) query_latency_ns->Observe(root->ElapsedNs());
  if (qerror != nullptr) ObserveQErrors(*root, qerror);
}

}  // namespace prairie::exec
