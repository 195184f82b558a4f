// Per-operator runtime statistics for the iterator model (executor
// observability).
//
// The stats layer is attached at plan-build time: ExecutorRegistry::Build
// accepts an optional ExecStats collector and wraps every factory-built
// iterator in an InstrumentedIterator, so every registered algorithm is
// covered without touching any operator's inner loop. Each wrapper owns an
// OpStats node in a tree mirroring the access plan's algorithm nodes
// (stored-file leaves have no runtime behavior and get no node).
//
// Cost model (mirrors common/trace.h and common/metrics.h):
//   * Off: passing a null ExecStats* builds the plain tree.
//   * Enabled: Open/Close are timed exactly (they run once per operator);
//     Next is counted on every call but *timed* only one call in
//     kNextSamplePeriod (64), so the per-row overhead is a counter
//     increment, not two clock reads.
//
// Timestamps use the TraceNowNs() steady-clock domain, so EmitTrace()
// merges execution spans into the same Chrome/Perfetto timeline as the
// optimizer's search trace.
//
// ExecStats is single-threaded like TraceSink: one collector per executing
// thread. The aggregate surface (ExecMetrics counters/histograms in a
// MetricsRegistry) is the thread-safe rendezvous for concurrent executors.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "exec/iterator.h"

namespace prairie::exec {

/// \brief Runtime counters for one algorithm node of an executed plan.
struct OpStats {
  std::string alg;      ///< Algorithm name (registry key).
  int op = -1;          ///< Algebra OpId (for trace naming).
  double est_rows = -1;  ///< Optimizer's cardinality estimate; <0 = unknown.
  int child_index = 0;  ///< Position among the parent's plan children.
  int depth = 0;        ///< Distance from the plan root.

  uint64_t rows = 0;        ///< Rows produced (Next() returning true).
  uint64_t next_calls = 0;  ///< Next() invocations, including the last miss.
  uint64_t open_ns = 0;     ///< Wall time inside Open() (cumulative).
  uint64_t close_ns = 0;    ///< Wall time inside Close() (cumulative).
  uint64_t sampled_next_ns = 0;     ///< Wall time of the sampled Next calls.
  uint64_t sampled_next_calls = 0;  ///< How many Next calls were sampled.
  uint64_t first_open_ns = 0;  ///< TraceNowNs() at first Open() entry.
  uint64_t last_close_ns = 0;  ///< TraceNowNs() at last Close() exit.

  /// Children in plan order (non-owning; the ExecStats arena owns nodes).
  std::vector<OpStats*> children;

  /// Inclusive wall time first Open() .. last Close() — children included,
  /// the EXPLAIN ANALYZE convention. 0 if the operator never ran.
  uint64_t ElapsedNs() const {
    return last_close_ns > first_open_ns ? last_close_ns - first_open_ns : 0;
  }

  /// Total Next() time extrapolated from the 1-in-N samples.
  uint64_t EstimatedNextNs() const {
    if (sampled_next_calls == 0) return 0;
    return sampled_next_ns * next_calls / sampled_next_calls;
  }

  /// The cardinality estimation error max(est/act, act/est), with both
  /// sides clamped to >= 1 row so empty results stay finite. Returns 0
  /// when no estimate is attached (est_rows < 0).
  double QError() const;
};

/// \brief Collector for one query execution: an arena of OpStats nodes
/// mirroring the plan's algorithm tree, plus renderers and exporters.
///
/// Not thread-safe; use one ExecStats per executing thread.
class ExecStats {
 public:
  /// `est_rows_property` names the descriptor property holding the
  /// optimizer's cardinality estimate (both shipped rule sets use
  /// "num_records"); nodes whose descriptor lacks it get est_rows = -1.
  explicit ExecStats(std::string est_rows_property = "num_records")
      : est_rows_property_(std::move(est_rows_property)) {}

  ExecStats(const ExecStats&) = delete;
  ExecStats& operator=(const ExecStats&) = delete;

  const std::string& est_rows_property() const { return est_rows_property_; }

  /// Creates a node for one algorithm; called by ExecutorRegistry::Build.
  /// `parent == nullptr` designates the root. Children are kept sorted by
  /// `child_index` regardless of factory build order.
  OpStats* NewNode(std::string alg, int op, double est_rows, OpStats* parent,
                   int child_index);

  /// The plan root's stats, or nullptr if nothing was built.
  const OpStats* root() const { return root_; }
  OpStats* mutable_root() { return root_; }

  size_t num_nodes() const { return nodes_.size(); }

  /// Sum of rows produced over all operators.
  uint64_t TotalRows() const;
  /// Sum of Next() calls over all operators.
  uint64_t TotalNextCalls() const;

  /// Human-readable annotated plan, one line per operator:
  ///   Merge_sort  est=120 act=118 q=1.02 elapsed_ns=10533 next=119
  std::string ToText() const;

  /// Deterministic JSON export (fixed key order, children nested in plan
  /// order). Timing fields vary run to run; structure does not.
  std::string ToJson() const;

  /// Replays the execution as trace events — a kExecQuery span over the
  /// whole run, a kExecOperator span per node (desc = OpId, cost = rows)
  /// and a kExecQError instant per estimated node (cost = Q-error) — so
  /// optimize and execute share one exported timeline. No-op on a null
  /// sink or when nothing ran.
  void EmitTrace(common::TraceSink* sink) const;

 private:
  std::string est_rows_property_;
  std::deque<OpStats> nodes_;  ///< Deque: stable pointers as nodes append.
  OpStats* root_ = nullptr;
};

/// \brief Decorator recording an OpStats node while delegating to the
/// wrapped iterator. Row contents are passed through untouched, so an
/// instrumented plan is result-identical to a plain one.
class InstrumentedIterator final : public Iterator {
 public:
  /// Time one Next() call in this many (power of two). Next() runs once
  /// per row, and a steady-clock read costs tens of ns on VM hosts: at
  /// 1-in-64 the two reads amortize to well under the per-row budget of
  /// bench_overhead's executor-stats gate.
  static constexpr uint64_t kNextSamplePeriod = 64;

  InstrumentedIterator(IterPtr inner, OpStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  common::Status Open() override;
  common::Result<bool> Next(Row* out) override;
  common::Status Close() override;
  const RowSchema& schema() const override { return inner_->schema(); }

 private:
  IterPtr inner_;
  OpStats* stats_;
};

/// \brief Bundle of executor series in a MetricsRegistry, mirroring
/// VolcanoMetrics: resolve once with ForRegistry, flush per query.
struct ExecMetrics {
  common::Counter* queries = nullptr;     ///< prairie_exec_queries_total
  common::Counter* operators = nullptr;   ///< prairie_exec_operators_total
  common::Counter* rows = nullptr;        ///< prairie_exec_rows_total
  common::Counter* next_calls = nullptr;  ///< prairie_exec_next_calls_total
  /// Whole-query wall latency (first open .. last close), nanoseconds.
  common::Histogram* query_latency_ns = nullptr;
  /// Per-operator Q-error, rounded to the nearest integer; the log-2
  /// buckets read directly as "within 2x", "within 4x", ...
  common::Histogram* qerror = nullptr;

  /// Registers/resolves the prairie_exec_* series in `registry`.
  static ExecMetrics ForRegistry(common::MetricsRegistry* registry);

  /// Adds one executed query's stats to the aggregate series. Thread-safe
  /// (counter/histogram writes are sharded atomics).
  void FlushExecStats(const ExecStats& stats) const;
};

}  // namespace prairie::exec
