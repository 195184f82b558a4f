// Serving-path benchmark: BatchOptimizer throughput and latency, cold and
// warm, over the plan cache in both of its modes (DESIGN.md §6, §8).
//
// Two request streams run through BatchOptimizer at jobs = 1, 2, 4, 8:
//   paper    the paper's Q1..Q8 x4 at 3 joins, each copy under its own
//            cardinality seed, with the exact plan cache. Cold: cache off,
//            every query runs the full search. Warm: a cache filled by one
//            untimed round, so every query is a fingerprint probe.
//   traffic  a TrafficGenerator stream (its defaults: 16 skeletons, 4
//            tenants, 2 joins) of 400 requests per phase with the
//            parameterized cache. Cold: the first 400 requests fill an
//            empty cache. Warm: 400 more, with fresh constants, served by
//            rebinding the probe's constants into cached skeleton plans.
// Each phase reports wall time, queries/s and its speedup over jobs=1, the
// hit rate, and p50/p99 per-query latency from the
// prairie_query_latency_ns histogram of a per-row metrics registry.
//
// Gates (exit 1 on violation):
//   - every returned plan, cold and warm, at every jobs count, equals a
//     fresh single-threaded cache-less optimization of the same request:
//     same cost and same rendered plan, descriptors and constants included
//     (parallel = serial, cached = fresh, rebound = fresh);
//   - the warm hit rate of both streams is >= 0.95.
//
// PRAIRIE_SERVING_CI=1 selects the CI size: the paper stream x1 at 2
// joins and 150 traffic requests per phase.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "volcano/batch.h"
#include "workload/traffic.h"

namespace {

using prairie::common::HistogramSnapshot;
using prairie::volcano::BatchOptimizer;
using prairie::volcano::BatchOptions;
using prairie::volcano::BatchQuery;
using prairie::volcano::BatchResult;
using prairie::volcano::RuleSet;

constexpr double kMinWarmHitRate = 0.95;
constexpr size_t kCacheEntries = 4096;

/// What a request must return: its fresh single-threaded, cache-less plan.
struct Reference {
  double cost = 0;
  std::string plan;
};

/// One request stream: the requests of each phase and their references.
struct Stream {
  const char* name = "";
  bool param_cache = false;  ///< Parameterized cache; exact otherwise.
  bool cold_fills = false;   ///< The cold phase fills the cache; otherwise
                             ///< it runs with the cache off and an untimed
                             ///< round fills it.
  std::vector<BatchQuery> cold;
  std::vector<BatchQuery> warm;
  std::vector<Reference> cold_ref;
  std::vector<Reference> warm_ref;
};

struct Phase {
  double wall_s = 0;
  size_t hits = 0;
  size_t rebound = 0;
  size_t mismatches = 0;  ///< Failed plans and plans unlike the reference.
  HistogramSnapshot latency;
};

/// The plan as an access-plan tree with every node's descriptor, so a
/// wrong constant shows; PhysNode::ToString renders the algorithms only.
std::string Render(const RuleSet& rules, const prairie::volcano::Plan& plan) {
  return plan.root->ToExpr(*rules.algebra)->TreeString(*rules.algebra);
}

bool References(const RuleSet& rules, const std::vector<BatchQuery>& queries,
                std::vector<Reference>* out) {
  for (const BatchQuery& q : queries) {
    prairie::volcano::Optimizer fresh(&rules, q.catalog);
    auto plan = fresh.Optimize(*q.tree);
    if (!plan.ok()) {
      std::fprintf(stderr, "bench_serving: reference: %s\n",
                   plan.status().ToString().c_str());
      return false;
    }
    out->push_back({plan->cost, Render(rules, *plan)});
  }
  return true;
}

/// Runs `queries` through `batch` once and checks every plan against `ref`.
/// The latency distribution is this run's delta of `latency_ns`.
Phase Run(const RuleSet& rules, BatchOptimizer* batch,
          const std::vector<BatchQuery>& queries,
          const std::vector<Reference>& ref,
          const prairie::common::Histogram& latency_ns) {
  Phase p;
  const HistogramSnapshot before = latency_ns.Snapshot();
  prairie::common::Stopwatch sw;
  const std::vector<BatchResult> results = batch->OptimizeAll(queries);
  p.wall_s = sw.ElapsedSeconds();
  const HistogramSnapshot after = latency_ns.Snapshot();
  for (size_t i = 0; i < after.counts.size(); ++i) {
    p.latency.counts[i] = after.counts[i] - before.counts[i];
  }
  p.latency.count = after.count - before.count;
  p.latency.sum = after.sum - before.sum;
  for (size_t i = 0; i < results.size(); ++i) {
    const BatchResult& r = results[i];
    if (r.stats.plan_from_cache) ++p.hits;
    p.rebound += r.stats.cache_param_hits;
    if (!r.plan.ok() || r.plan->cost != ref[i].cost ||
        Render(rules, *r.plan) != ref[i].plan) {
      ++p.mismatches;
    }
  }
  return p;
}

}  // namespace

int main() {
  const bool ci = prairie::bench::EnvInt("PRAIRIE_SERVING_CI", 0) > 0;
  const int copies = ci ? 1 : 4;
  const int paper_joins = ci ? 2 : 3;
  const size_t requests = ci ? 150 : 400;

  auto pair = prairie::bench::BuildOodbPair();
  if (!pair.ok()) {
    std::fprintf(stderr, "bench_serving: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  const RuleSet& rules = *pair->emitted;

  Stream paper;
  paper.name = "paper";
  std::vector<prairie::workload::Workload> workloads;
  for (int copy = 0; copy < copies; ++copy) {
    for (int q = 1; q <= 8; ++q) {
      auto w = prairie::workload::MakeWorkload(
          *rules.algebra, prairie::workload::PaperQuery(
                              q, paper_joins, static_cast<uint64_t>(copy + 1)));
      if (!w.ok()) {
        std::fprintf(stderr, "bench_serving: Q%d: %s\n", q,
                     w.status().ToString().c_str());
        return 1;
      }
      workloads.push_back(std::move(*w));
    }
  }
  for (const auto& w : workloads) {
    paper.cold.push_back(BatchQuery{w.query.get(), &w.catalog});
  }
  paper.warm = paper.cold;

  Stream traffic;
  traffic.name = "traffic";
  traffic.param_cache = true;
  traffic.cold_fills = true;
  auto gen = prairie::workload::TrafficGenerator::Make(
      *rules.algebra, prairie::workload::TrafficOptions());
  if (!gen.ok()) {
    std::fprintf(stderr, "bench_serving: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }
  std::vector<prairie::workload::TrafficRequest> drawn;
  for (size_t i = 0; i < 2 * requests; ++i) {
    drawn.push_back(gen->Next());
    (i < requests ? traffic.cold : traffic.warm)
        .push_back(BatchQuery{drawn.back().query.get(), drawn.back().catalog});
  }

  // Each request's reference is computed once and serves every jobs count.
  if (!References(rules, paper.cold, &paper.cold_ref) ||
      !References(rules, traffic.cold, &traffic.cold_ref) ||
      !References(rules, traffic.warm, &traffic.warm_ref)) {
    return 1;
  }
  paper.warm_ref = paper.cold_ref;

  std::printf(
      "serving path: paper stream Q1..Q8 x%d at %d joins (exact cache), "
      "traffic stream %zu requests/phase (parameterized cache)\n\n",
      copies, paper_joins, requests);
  std::printf("%7s %4s %5s %11s %10s %8s %8s %7s %10s %10s  %s\n", "stream",
              "jobs", "phase", "wall", "queries/s", "speedup", "hit rate",
              "rebound", "p50/query", "p99/query", "plans");

  prairie::bench::JsonWriter json("serving");
  size_t mismatches = 0;
  bool rate_ok = true;
  for (Stream* s : {&paper, &traffic}) {
    double base_qps[2] = {0, 0};
    for (int jobs : {1, 2, 4, 8}) {
      prairie::common::MetricsRegistry registry;
      prairie::volcano::VolcanoMetrics metrics =
          prairie::volcano::VolcanoMetrics::ForRegistry(&registry);
      BatchOptions options;
      options.jobs = jobs;
      options.optimizer.param_cache = s->param_cache;
      options.optimizer.metrics = &metrics;
      options.plan_cache_entries = kCacheEntries;
      BatchOptimizer cached(&rules, options);
      const prairie::common::Histogram& latency = *metrics.query_latency_ns;

      Phase phases[2];
      if (s->cold_fills) {
        phases[0] = Run(rules, &cached, s->cold, s->cold_ref, latency);
      } else {
        BatchOptions off = options;
        off.plan_cache_entries = 0;
        BatchOptimizer uncached(&rules, off);
        phases[0] = Run(rules, &uncached, s->cold, s->cold_ref, latency);
        // An untimed round fills the cache; its plans are checked too.
        mismatches +=
            Run(rules, &cached, s->warm, s->warm_ref, latency).mismatches;
      }
      phases[1] = Run(rules, &cached, s->warm, s->warm_ref, latency);

      for (int i = 0; i < 2; ++i) {
        const Phase& p = phases[i];
        const char* phase = i == 0 ? "cold" : "warm";
        const size_t n = i == 0 ? s->cold.size() : s->warm.size();
        const double qps = static_cast<double>(n) / p.wall_s;
        if (jobs == 1) base_qps[i] = qps;
        const double hit_rate =
            static_cast<double>(p.hits) / static_cast<double>(n);
        if (i == 1 && hit_rate < kMinWarmHitRate) rate_ok = false;
        mismatches += p.mismatches;
        const double p50_us = p.latency.Percentile(50) / 1e3;
        const double p99_us = p.latency.Percentile(99) / 1e3;
        json.RecordRaw(
            std::string(s->name) + "/jobs=" + std::to_string(jobs) + "/" +
                phase,
            p.wall_s * 1e6,
            "\"queries_per_s\":" + std::to_string(qps) +
                ",\"hit_rate\":" + std::to_string(hit_rate) +
                ",\"rebound_hits\":" + std::to_string(p.rebound) +
                ",\"p50_query_us\":" + std::to_string(p50_us) +
                ",\"p99_query_us\":" + std::to_string(p99_us) +
                ",\"mismatches\":" + std::to_string(p.mismatches));
        std::printf(
            "%7s %4d %5s %9.2fms %10.1f %7.2fx %7.1f%% %7zu %8.1fus "
            "%8.1fus  %s\n",
            s->name, jobs, phase, p.wall_s * 1e3, qps, qps / base_qps[i],
            100.0 * hit_rate, p.rebound, p50_us, p99_us,
            p.mismatches == 0 ? "identical" : "DIFFER");
      }
      std::fflush(stdout);
    }
  }

  std::printf(
      "\nExpectation: cold queries/s scales with jobs up to the core count;\n"
      "a warm hit is a fingerprint probe (plus a rebind on the traffic\n"
      "stream), orders of magnitude below a search; every plan equals the\n"
      "fresh single-threaded reference; warm hit rate >= 95%% on both\n"
      "streams.\n");
  if (mismatches != 0 || !rate_ok) {
    std::fprintf(stderr,
                 "bench_serving: FAILED — %zu plans differ from the fresh "
                 "reference%s\n",
                 mismatches,
                 rate_ok ? "" : "; a warm hit rate is below 0.95");
    return 1;
  }
  return 0;
}
