// Parallel batch optimization: optimize many independent queries at once.
//
// A production optimizer's figure of merit under heavy traffic is
// throughput — queries optimized per second across concurrent sessions —
// not just single-query latency. Queries are independent searches, so the
// unit of parallelism is the query (each search itself is serial):
// BatchOptimizer runs a fixed set of worker threads, each constructing a
// private single-threaded Optimizer (its own memo, winner tables, stats)
// per query, while all workers intern descriptors through ONE concurrent
// DescriptorStore so ids stay globally canonical and common descriptors
// (empty requirements, shared literals, projected slices) are stored once.
//
// Shared, immutable across workers: the RuleSet (including its dispatch
// index, built by Finalize()), each query's Catalog, the Algebra, and the
// descriptor store. Per worker, per query: the Memo, the search state and
// the stats. Plans returned are plain value trees (PhysNode), so results
// are usable after the batch without touching the store.

#pragma once

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "volcano/engine.h"
#include "volcano/plancache.h"

namespace prairie::volcano {

/// \brief One query of a batch. `tree` and `catalog` must outlive the
/// OptimizeAll call; queries may share a catalog or carry their own.
struct BatchQuery {
  const algebra::Expr* tree = nullptr;
  const catalog::Catalog* catalog = nullptr;
};

/// \brief Outcome of one batch query.
struct BatchResult {
  common::Result<Plan> plan{
      common::Status::OptimizeError("query was not optimized")};
  OptimizerStats stats;
  double seconds = 0;  ///< Wall-clock optimize time of this query.
};

/// \brief Batch-level knobs.
struct BatchOptions {
  /// Worker threads; <= 0 picks std::thread::hardware_concurrency().
  int jobs = 1;
  /// Per-query optimizer options (pruning, limits, param_cache). The
  /// `trace` sink here is ignored — per-worker sinks are wired internally
  /// when trace_capacity > 0 so workers never contend on one sink — and so
  /// is `plan_cache`: workers probe only the batch's own cache. The
  /// `metrics` bundle, by contrast, IS honored and shared by every worker:
  /// its counters/histograms are per-thread sharded, so concurrent flushes
  /// do not contend; batch_runs/batch_worker_merges, and a concurrent
  /// store's interning traffic, are added after the join barrier.
  OptimizerOptions optimizer;
  /// > 0: construct a plan cache (sized to this many entries) over the
  /// shared store and hand it to every worker — repeated queries across
  /// and within batches are answered without re-running the search.
  size_t plan_cache_entries = 0;
  /// > 0: trace every worker into a private RingBufferSink of this
  /// capacity; the streams are merged (timestamp-ordered) after the
  /// workers join and exposed via trace_events(). 0 disables tracing.
  size_t trace_capacity = 0;
};

/// \brief Optimizes batches of queries over one rule set, in parallel.
///
/// The rule set must be Finalize()d and must not change while batches run.
/// OptimizeAll may be called repeatedly; the shared store persists across
/// calls, so descriptors learned by one batch warm the next.
class BatchOptimizer {
 public:
  explicit BatchOptimizer(const RuleSet* rules,
                          BatchOptions options = BatchOptions());

  /// Optimizes every query, distributing them over the worker threads.
  /// Results are positionally aligned with `queries`. Individual failures
  /// (e.g. no feasible plan) land in that query's BatchResult; they do not
  /// abort the batch.
  std::vector<BatchResult> OptimizeAll(const std::vector<BatchQuery>& queries);

  /// The store every worker interns descriptors through.
  const algebra::DescriptorStore* shared_store() const { return store_.get(); }

  /// The plan cache workers probe (plan_cache_entries > 0), or null when
  /// caching is off.
  PlanCache* plan_cache() const { return cache_.get(); }

  int jobs() const { return jobs_; }

  /// The merged (timestamp-ordered) trace of the last OptimizeAll call;
  /// empty unless BatchOptions::trace_capacity > 0. Events carry the
  /// emitting worker's thread id, so per-worker streams stay separable.
  const std::vector<common::TraceEvent>& trace_events() const {
    return trace_;
  }
  /// Events lost to per-worker ring wrap-around in the last call.
  size_t trace_dropped() const { return trace_dropped_; }

 private:
  const RuleSet* rules_;
  BatchOptions options_;
  int jobs_;
  std::unique_ptr<algebra::DescriptorStore> store_;
  std::unique_ptr<PlanCache> cache_;
  std::vector<common::TraceEvent> trace_;
  size_t trace_dropped_ = 0;
};

}  // namespace prairie::volcano
