#include "volcano/batch.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/stopwatch.h"

namespace prairie::volcano {

BatchOptimizer::BatchOptimizer(const RuleSet* rules, BatchOptions options)
    : rules_(rules), options_(options) {
  jobs_ = options_.jobs;
  if (jobs_ <= 0) {
    jobs_ = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs_ <= 0) jobs_ = 1;
  }
  store_ = std::make_unique<algebra::DescriptorStore>(
      &rules_->algebra->properties(),
      jobs_ > 1 ? algebra::StoreMode::kConcurrent
                : algebra::StoreMode::kSerial);
  // Cache keys embed interned ids, so the cache lives over the shared
  // store.
  if (options_.plan_cache_entries > 0) {
    PlanCacheOptions copt;
    copt.max_entries = options_.plan_cache_entries;
    cache_ = std::make_unique<PlanCache>(store_.get(), copt);
  }
}

std::vector<BatchResult> BatchOptimizer::OptimizeAll(
    const std::vector<BatchQuery>& queries) {
  std::vector<BatchResult> results(queries.size());
  std::atomic<size_t> next{0};
  const int workers =
      std::max(1, std::min<int>(jobs_, static_cast<int>(queries.size())));
  // One private sink per worker: emission never crosses threads, so sinks
  // stay lock-free; the streams are merged after the join barrier below.
  std::vector<std::unique_ptr<common::RingBufferSink>> sinks;
  if (options_.trace_capacity > 0) {
    sinks.reserve(static_cast<size_t>(workers));
    for (int t = 0; t < workers; ++t) {
      sinks.push_back(
          std::make_unique<common::RingBufferSink>(options_.trace_capacity));
    }
  }
  const algebra::DescriptorStore::CounterSnapshot store_before =
      store_->Counters();
  auto worker = [&](int wid) {
    OptimizerOptions opt = options_.optimizer;
    opt.trace = sinks.empty() ? nullptr : sinks[static_cast<size_t>(wid)].get();
    opt.plan_cache = cache_.get();
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries.size()) return;
      const BatchQuery& q = queries[i];
      BatchResult& r = results[i];
      if (q.tree == nullptr) {
        r.plan = common::Status::InvalidArgument("batch query has no tree");
        continue;
      }
      common::Stopwatch sw;
      Optimizer optimizer(rules_, q.catalog, opt, store_.get());
      r.plan = optimizer.Optimize(*q.tree);
      r.seconds = sw.ElapsedSeconds();
      r.stats = optimizer.stats();
    }
  };
  // Workers 1..workers-1 get threads of their own and the calling thread
  // runs as worker 0; each drains the `next` counter, so queries balance
  // across workers however the threads are scheduled.
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<size_t>(workers - 1));
  for (int t = 1; t < workers; ++t) helpers.emplace_back(worker, t);
  worker(0);
  for (std::thread& helper : helpers) helper.join();
  // Every worker has joined: merge the per-worker streams into one
  // timestamp-ordered trace (steady-clock timestamps are comparable across
  // threads on one host).
  trace_.clear();
  trace_dropped_ = 0;
  for (const auto& sink : sinks) {
    std::vector<common::TraceEvent> events = sink->Snapshot();
    trace_.insert(trace_.end(), events.begin(), events.end());
    trace_dropped_ += sink->dropped();
  }
  std::sort(trace_.begin(), trace_.end(),
            [](const common::TraceEvent& a, const common::TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  // Post-barrier batch metrics. Per-query counters were already flushed by
  // each worker's optimizers (same bundle, sharded counters: no
  // contention), except a concurrent store's interning traffic: each
  // query's delta of it includes the other workers', so it is added here,
  // once, along with the batch-level shape.
  if (const VolcanoMetrics* mm = options_.optimizer.metrics) {
    if (store_->concurrent()) {
      mm->AddStoreTraffic(store_before, store_->Counters());
    }
    if (mm->batch_runs != nullptr) mm->batch_runs->Inc();
    if (mm->batch_worker_merges != nullptr) {
      mm->batch_worker_merges->Inc(static_cast<uint64_t>(workers));
    }
  }
  return results;
}

}  // namespace prairie::volcano
