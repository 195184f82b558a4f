// The warm traffic workload: a workload::TrafficGenerator stream (16
// Q1-Q8-family skeletons at 2 joins, 4 tenants, Zipf 1.1, fresh constants
// per request) sent in groups of 128 to one BatchOptimizer with 4 workers
// and the parameterized plan cache on, primed during set-up. Closed loop:
// the next group is sent when the previous one returns.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/descriptor_store.h"
#include "algebra/param.h"
#include "common/rng.h"
#include "reference.h"
#include "spans.h"
#include "volcano/batch.h"
#include "volcano/engine.h"
#include "volcano/plancache.h"
#include "workload/traffic.h"

namespace perfbench {

namespace {

namespace volcano = prairie::volcano;
namespace workload = prairie::workload;
using prairie::common::Result;
using prairie::common::Status;

constexpr int kSkeletons = 16;
constexpr int kTenants = 4;
constexpr int kJoins = 2;
constexpr double kZipf = 1.1;
constexpr int kWorkers = 4;
constexpr size_t kGroup = 128;  // requests per OptimizeAll call
constexpr size_t kCacheEntries = 4096;
// Served plans at this many seeded stream positions, all within the first
// kSampleWindow requests, are compared with a fresh cache-less search.
constexpr size_t kSamples = 32;
constexpr size_t kSampleWindow = 4096;
// Percentiles are taken per window of this many groups (4096 requests),
// then read across windows at the low end (see harness.h).
constexpr size_t kWindowGroups = 32;
// A set-up repetition follows every this many windows, until kSetupReps.
constexpr size_t kWindowsPerSetup = 24;
// The replay alternates untraced and traced windows of this many requests,
// up to kReplayCap requests in all.
constexpr size_t kReplayWindow = 512;
constexpr size_t kReplayCap = 32768;

workload::TrafficOptions Options(uint64_t seed) {
  workload::TrafficOptions options;
  options.num_skeletons = kSkeletons;
  options.num_tenants = kTenants;
  options.zipf_s = kZipf;
  options.num_joins = kJoins;
  options.seed = seed;
  return options;
}

/// Draws from the stream until every skeleton has appeared and returns the
/// first request of each: the priming set.
Result<std::vector<workload::TrafficRequest>> DrawPriming(
    workload::TrafficGenerator* gen) {
  std::vector<workload::TrafficRequest> first(
      static_cast<size_t>(gen->num_skeletons()));
  size_t missing = first.size();
  for (int draws = 0; missing > 0; ++draws) {
    if (draws > 1000000) {
      return Status::Internal("traffic: a skeleton never appeared");
    }
    workload::TrafficRequest r = gen->Next();
    auto& slot = first[static_cast<size_t>(r.skeleton)];
    if (slot.query == nullptr) {
      slot = std::move(r);
      --missing;
    }
  }
  return first;
}

std::vector<volcano::BatchQuery> Borrow(
    const std::vector<workload::TrafficRequest>& requests) {
  std::vector<volcano::BatchQuery> queries;
  queries.reserve(requests.size());
  for (const workload::TrafficRequest& r : requests) {
    queries.push_back(volcano::BatchQuery{r.query.get(), r.catalog});
  }
  return queries;
}

struct Setup {
  LoadedSpec spec;
  std::unique_ptr<workload::TrafficGenerator> gen;
  std::vector<workload::TrafficRequest> priming;
  std::unique_ptr<volcano::BatchOptimizer> batch;
  std::vector<double> primed_cost;  ///< Per skeleton, from priming.
  uint64_t position = 0;            ///< Requests drawn after priming.
  double gen_ms = 0;
  double prime_ms = 0;
};

Result<std::unique_ptr<Setup>> MakeSetup(uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  PRAIRIE_ASSIGN_OR_RETURN(setup->spec, LoadOodbSpec());
  const volcano::RuleSet* rules = setup->spec.rules.get();
  const uint64_t t0 = NowNs();
  PRAIRIE_ASSIGN_OR_RETURN(
      workload::TrafficGenerator gen,
      workload::TrafficGenerator::Make(*rules->algebra, Options(seed)));
  setup->gen = std::make_unique<workload::TrafficGenerator>(std::move(gen));
  PRAIRIE_ASSIGN_OR_RETURN(setup->priming, DrawPriming(setup->gen.get()));
  const uint64_t t1 = NowNs();
  volcano::BatchOptions options;
  options.jobs = kWorkers;
  options.optimizer.param_cache = true;
  options.plan_cache_entries = kCacheEntries;
  setup->batch = std::make_unique<volcano::BatchOptimizer>(rules, options);
  std::vector<volcano::BatchResult> primed =
      setup->batch->OptimizeAll(Borrow(setup->priming));
  const uint64_t t2 = NowNs();
  for (const volcano::BatchResult& r : primed) {
    if (!r.plan.ok()) return r.plan.status();
    setup->primed_cost.push_back(r.plan->cost);
  }
  setup->gen_ms = static_cast<double>(t1 - t0) / 1e6;
  setup->prime_ms = static_cast<double>(t2 - t1) / 1e6;
  return setup;
}

/// \brief Fresh cache-less searches: one per skeleton (its cost serves
/// every request of the skeleton, since the cost model ignores literal
/// values) and one per sampled stream position (cost and plan text).
struct References {
  std::vector<double> skeleton_cost;
  std::vector<uint64_t> positions;  ///< Sorted sampled stream positions.
  std::vector<double> sample_cost;
  std::vector<std::string> sample_plan;
  bool ok = true;
};

Result<References> ComputeReferences(const Setup& setup, uint64_t seed) {
  References refs;
  std::set<uint64_t> picked;
  prairie::common::Rng rng(SubSeed(seed, 400));
  while (picked.size() < kSamples) {
    picked.insert(static_cast<uint64_t>(
        rng.Uniform(0, static_cast<int64_t>(kSampleWindow) - 1)));
  }
  refs.positions.assign(picked.begin(), picked.end());

  const volcano::RuleSet* rules = setup.spec.rules.get();
  // Each worker process replays the stream from the post-priming state it
  // inherited, so its requests equal the ones the measurement will send.
  workload::TrafficGenerator* gen = setup.gen.get();
  std::vector<workload::TrafficRequest> stream;
  const size_t skeletons = setup.priming.size();
  auto work = [&](size_t i) -> std::string {
    const workload::TrafficRequest* request = nullptr;
    if (i < skeletons) {
      request = &setup.priming[i];
    } else {
      const uint64_t position = refs.positions[i - skeletons];
      while (stream.size() <= position) stream.push_back(gen->Next());
      request = &stream[position];
    }
    volcano::Optimizer fresh(rules, request->catalog);
    auto plan = fresh.Optimize(*request->query);
    if (!plan.ok()) return "error " + plan.status().ToString();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g ", plan->cost);
    return buf + plan->root->ToString(*rules->algebra);
  };
  PRAIRIE_ASSIGN_OR_RETURN(
      std::vector<std::string> lines,
      ForkMap(skeletons + refs.positions.size(), kReferenceProcs, work));
  for (size_t i = 0; i < lines.size(); ++i) {
    double cost = 0;
    const size_t space = lines[i].find(' ');
    if (lines[i].rfind("error", 0) == 0 || space == std::string::npos ||
        std::sscanf(lines[i].c_str(), "%lf", &cost) != 1) {
      std::fprintf(stderr, "perfbench: no traffic reference %zu: %s\n", i,
                   lines[i].c_str());
      refs.ok = false;
      cost = -1;  // never matches: the requests it covers count as failed
    }
    if (i < skeletons) {
      refs.skeleton_cost.push_back(cost);
    } else {
      refs.sample_cost.push_back(cost);
      refs.sample_plan.push_back(lines[i].substr(space + 1));
    }
  }
  return refs;
}

/// \brief Per-window figures of the real multi-worker run, plus totals.
struct BatchRun {
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  std::vector<double> p99_ms;
  std::vector<double> qps;
  std::vector<double> call_ms;  ///< Mean wall per OptimizeAll call.
  size_t requests = 0;
  double call_s = 0;
  double busy_s = 0;
  volcano::PlanCacheStats cache_before;
  volcano::PlanCacheStats cache_after;
};

Result<std::unique_ptr<Setup>> TimedSetup(uint64_t seed, SetupTimes* times) {
  const uint64_t t0 = NowNs();
  PRAIRIE_ASSIGN_OR_RETURN(std::unique_ptr<Setup> setup, MakeSetup(seed));
  times->Record(t0, setup->spec, setup->gen_ms, setup->prime_ms);
  return setup;
}

/// Sends groups of requests until `budget_s` has passed, checking every
/// served plan against its skeleton's cost and the sampled positions
/// against their full fresh plans. `between` runs after every window.
Status RunBatches(Setup* setup, const References& refs, double budget_s,
                  const std::function<Status()>& between, BatchRun* run,
                  Report* report) {
  const volcano::RuleSet* rules = setup->spec.rules.get();
  run->cache_before = setup->batch->plan_cache()->stats();
  std::vector<double> latency_ms;
  latency_ms.reserve(kWindowGroups * kGroup);
  double window_call_s = 0;
  size_t window_groups = 0;
  const uint64_t t0 = NowNs();
  while (static_cast<double>(NowNs() - t0) / 1e9 < budget_s) {
    std::vector<workload::TrafficRequest> requests;
    requests.reserve(kGroup);
    for (size_t j = 0; j < kGroup; ++j) requests.push_back(setup->gen->Next());
    const std::vector<volcano::BatchQuery> queries = Borrow(requests);
    const uint64_t c0 = NowNs();
    std::vector<volcano::BatchResult> results =
        setup->batch->OptimizeAll(queries);
    const double call_s = static_cast<double>(NowNs() - c0) / 1e9;
    window_call_s += call_s;
    run->call_s += call_s;
    for (size_t j = 0; j < results.size(); ++j) {
      const volcano::BatchResult& r = results[j];
      const uint64_t position = setup->position + j;
      bool ok = r.plan.ok() &&
                CostMatches(r.plan->cost,
                            refs.skeleton_cost[static_cast<size_t>(
                                requests[j].skeleton)]);
      auto it = std::lower_bound(refs.positions.begin(), refs.positions.end(),
                                 position);
      if (ok && it != refs.positions.end() && *it == position) {
        const size_t k = static_cast<size_t>(it - refs.positions.begin());
        ok = CostMatches(r.plan->cost, refs.sample_cost[k]) &&
             r.plan->root->ToString(*rules->algebra) == refs.sample_plan[k];
      }
      report->Count(ok);
      latency_ms.push_back(r.seconds * 1e3);
      run->busy_s += r.seconds;
    }
    setup->position += results.size();
    run->requests += results.size();
    if (++window_groups < kWindowGroups) continue;
    run->p50_ms.push_back(Percentile(latency_ms, 50));
    run->p90_ms.push_back(Percentile(latency_ms, 90));
    run->p99_ms.push_back(Percentile(latency_ms, 99));
    run->qps.push_back(static_cast<double>(latency_ms.size()) / window_call_s);
    run->call_ms.push_back(window_call_s / kWindowGroups * 1e3);
    latency_ms.clear();
    window_call_s = 0;
    window_groups = 0;
    PRAIRIE_RETURN_NOT_OK(between());
  }
  run->cache_after = setup->batch->plan_cache()->stats();
  return Status::OK();
}

/// \brief Per-window means of one replay pass.
struct ReplayWindows {
  std::vector<double> wall_ns;
  std::vector<double> construct_ns;
  std::vector<double> optimize_ns;
  std::vector<double> hit_ns;  ///< Optimize on a cache hit.
  std::vector<double> destroy_ns;
  std::vector<double> parameterize_ns;
};

/// The replay: benchmark-owned optimizers over their own primed store and
/// cache, fed the same stream one request at a time, so each request's
/// time splits into constructor, Optimize (probe + rebind on a hit) and
/// teardown. Windows alternate untraced and traced.
Status Replay(const Setup& setup, const References& refs, uint64_t seed,
              double budget_s, Tracer* tracer, Report* report) {
  const volcano::RuleSet* rules = setup.spec.rules.get();
  PRAIRIE_ASSIGN_OR_RETURN(
      workload::TrafficGenerator gen,
      workload::TrafficGenerator::Make(*rules->algebra, Options(seed)));
  PRAIRIE_ASSIGN_OR_RETURN(std::vector<workload::TrafficRequest> priming,
                           DrawPriming(&gen));
  // Mirrors the batch: a concurrent store (the batch's mode at 4 workers)
  // and a cache of the same size.
  prairie::algebra::DescriptorStore store(
      &rules->algebra->properties(), prairie::algebra::StoreMode::kConcurrent);
  volcano::PlanCacheOptions cache_options;
  cache_options.max_entries = kCacheEntries;
  volcano::PlanCache cache(&store, cache_options);
  volcano::OptimizerOptions options;
  options.plan_cache = &cache;
  options.param_cache = true;
  for (const workload::TrafficRequest& r : priming) {
    volcano::Optimizer optimizer(rules, r.catalog, options, &store);
    PRAIRIE_RETURN_NOT_OK(optimizer.Optimize(*r.query).status());
  }

  Tracer off(false);
  ReplayWindows untraced;
  ReplayWindows traced;
  double lookups = 0;
  double hits = 0;
  uint32_t next_id = 0;
  const uint64_t t0 = NowNs();
  for (size_t window = 0;
       next_id < kReplayCap &&
       (window < 2 || static_cast<double>(NowNs() - t0) / 1e9 < budget_s);
       ++window) {
    const bool is_traced = window % 2 == 1;
    Tracer* t = is_traced ? tracer : &off;
    double wall = 0, construct = 0, optimize = 0, destroy = 0, param = 0;
    double hit = 0;
    size_t hit_count = 0;
    for (size_t k = 0; k < kReplayWindow; ++k) {
      const workload::TrafficRequest r = gen.Next();
      const uint32_t id = next_id++;
      bool ok = false;
      {
        Phase request(t, "request", id);
        Phase construct_phase(t, "engine.construct", id);
        auto optimizer = std::make_unique<volcano::Optimizer>(
            rules, r.catalog, options, &store);
        construct += static_cast<double>(construct_phase.Stop());
        Phase optimize_phase(t, "engine.optimize", id);
        Result<volcano::Plan> plan = optimizer->Optimize(*r.query);
        const double optimize_ns = static_cast<double>(optimize_phase.Stop());
        optimize += optimize_ns;
        const volcano::OptimizerStats& stats = optimizer->stats();
        if (stats.plan_from_cache) {
          hit += optimize_ns;
          ++hit_count;
        }
        lookups += static_cast<double>(stats.desc_lookups);
        hits += static_cast<double>(stats.desc_hits);
        Phase destroy_phase(t, "engine.destroy", id);
        optimizer.reset();
        destroy += static_cast<double>(destroy_phase.Stop());
        wall += static_cast<double>(request.Stop());
        ok = plan.ok() &&
             CostMatches(plan->cost, refs.skeleton_cost[static_cast<size_t>(
                                         r.skeleton)]);
      }
      if (is_traced) {
        // Side measurement: the canonicalization the cache runs inside
        // Optimize, timed on its own through the public function.
        Phase param_phase(t, "param.parameterize", id);
        prairie::algebra::ParameterizedQuery pq =
            prairie::algebra::ParameterizeQuery(*r.query);
        param += static_cast<double>(param_phase.Stop());
      }
      report->Count(ok);
    }
    ReplayWindows& w = is_traced ? traced : untraced;
    const double n = static_cast<double>(kReplayWindow);
    w.wall_ns.push_back(wall / n);
    w.construct_ns.push_back(construct / n);
    w.optimize_ns.push_back(optimize / n);
    w.destroy_ns.push_back(destroy / n);
    w.parameterize_ns.push_back(param / n);
    if (hit_count > 0) w.hit_ns.push_back(hit / static_cast<double>(hit_count));
  }

  const Ledger ledger = Analyze(tracer->spans());
  ReportLedger(ledger, report);
  // Self time equals the measured duration for these childless spans.
  auto low = [](const std::vector<double>& v) { return Percentile(v, kLowPct); };
  report->Metric("engine.construct_us", low(traced.construct_ns) / 1e3);
  report->Metric("engine.optimize_ms", low(traced.optimize_ns) / 1e6);
  report->Metric("cache.hit_us", low(traced.hit_ns) / 1e3);
  report->Metric("engine.destroy_us", low(traced.destroy_ns) / 1e3);
  report->Metric("param.parameterize_us", low(traced.parameterize_ns) / 1e3);
  report->Metric("intern.lookups", lookups / next_id);
  report->Metric("intern.hit_rate", lookups > 0 ? hits / lookups : 0);
  report->Metric("trace.overhead_pct",
                 (low(traced.wall_ns) / low(untraced.wall_ns) - 1) * 100);
  return Status::OK();
}

void ReportBatchLayers(const Setup& setup, const BatchRun& run,
                       Report* report) {
  const volcano::PlanCacheStats& a = run.cache_before;
  const volcano::PlanCacheStats& b = run.cache_after;
  const double probes = static_cast<double>(b.probes - a.probes);
  const double hits = static_cast<double>(b.hits - a.hits);
  report->Metric("batch.call_ms", Percentile(run.call_ms, kLowPct));
  report->Metric("batch.busy_share",
                 run.call_s > 0 ? run.busy_s / (kWorkers * run.call_s) : 0);
  report->Metric("cache.hit_rate", probes > 0 ? hits / probes : 0);
  report->Metric("cache.rebound_share",
                 hits > 0 ? static_cast<double>(b.param_hits - a.param_hits) /
                                hits
                          : 0);
  report->Metric("cache.misses", static_cast<double>(b.misses - a.misses));
  report->Metric("cache.guard_rejects",
                 static_cast<double>(b.sensitivity_rejects -
                                     a.sensitivity_rejects));
  report->Metric("cache.stale_drops",
                 static_cast<double>(b.stale_drops - a.stale_drops));
  report->Metric("cache.evictions",
                 static_cast<double>(b.evictions - a.evictions));
  double log_sum = 0;
  for (double c : setup.primed_cost) log_sum += std::log(std::max(c, 1e-300));
  report->Metric("plan.cost_geomean",
                 std::exp(log_sum /
                          static_cast<double>(setup.primed_cost.size())));
}

}  // namespace

Status RunTraffic(const RunConfig& config, Report* report) {
  SetupTimes times;
  PRAIRIE_ASSIGN_OR_RETURN(std::unique_ptr<Setup> setup,
                           TimedSetup(config.seed, &times));
  PRAIRIE_ASSIGN_OR_RETURN(const References refs,
                           ComputeReferences(*setup, config.seed));
  if (!refs.ok) report->correct = false;
  // Further set-up repetitions run between windows, so they sample the
  // machine's speed across the run; each is discarded.
  size_t windows = 0;
  auto another_setup = [&]() -> Status {
    if (times.total_s.size() >= kSetupReps ||
        ++windows % kWindowsPerSetup != 0) {
      return Status::OK();
    }
    return TimedSetup(config.seed, &times).status();
  };
  auto finish_setups = [&]() -> Status {
    while (times.total_s.size() < kSetupReps) {
      PRAIRIE_RETURN_NOT_OK(TimedSetup(config.seed, &times).status());
    }
    return Status::OK();
  };

  BatchRun run;
  if (!config.trace) {
    PRAIRIE_RETURN_NOT_OK(RunBatches(setup.get(), refs, config.seconds,
                                     another_setup, &run, report));
    PRAIRIE_RETURN_NOT_OK(finish_setups());
    report->Metric("setup_s", Min(times.total_s));
    report->Metric("queries_per_s", Percentile(run.qps, kHighPct));
    report->Metric("opt_ms_p50", Percentile(run.p50_ms, kLowPct));
    report->Metric("opt_ms_p90", Percentile(run.p90_ms, kLowPct));
    report->Metric("opt_ms_p99", Percentile(run.p99_ms, kLowPct));
    report->Metric("peak_rss_mb", PeakRssMb());
    std::printf("traffic: %zu requests in %zu windows, %.2f s in OptimizeAll\n",
                run.requests, run.qps.size(), run.call_s);
    return Status::OK();
  }

  // Traced run: batch-level numbers from the real 4-worker run, the
  // per-request split from the single-thread replay.
  PRAIRIE_RETURN_NOT_OK(RunBatches(setup.get(), refs, config.seconds / 2,
                                   another_setup, &run, report));
  PRAIRIE_RETURN_NOT_OK(finish_setups());
  report->Metric("dsl.parse_ms", Min(times.parse_ms));
  report->Metric("p2v.translate_ms", Min(times.translate_ms));
  report->Metric("workload.gen_ms", Min(times.gen_ms));
  report->Metric("cache.prime_ms", Min(times.prime_ms));
  ReportBatchLayers(*setup, run, report);
  Tracer tracer(true);
  PRAIRIE_RETURN_NOT_OK(Replay(*setup, refs, config.seed, config.seconds / 2,
                               &tracer, report));
  if (!config.spans_out.empty()) {
    PRAIRIE_RETURN_NOT_OK(WriteSpans(tracer.spans(), config.spans_out));
  }
  return Status::OK();
}

}  // namespace perfbench
