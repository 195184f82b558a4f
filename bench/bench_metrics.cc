// Metrics overhead over the Q1..Q8 OODB workload (observability layer):
// what does the aggregate metrics bundle cost on the optimization path?
//
// Each query is optimized twice — plain (no metrics bundle: the production
// default) and metered (a VolcanoMetrics bundle over a private registry
// wired into OptimizerOptions) — best-of-N timings per configuration. The
// design goal is near-zero overhead: counters are flushed once per query
// as deltas and per-rule latencies are sampled 1-in-16 through the spans
// the tracer already owns, so the gate below holds the MEDIAN overhead
// across queries to a small budget.
//
// Self-checks (exit non-zero on failure):
//   - median metered/plain overhead <= PRAIRIE_METERED_OVERHEAD_TOL percent
//     (default 2%; micro-benchmark noise makes per-query maxima useless,
//     the median is stable),
//   - the bundle's counters must agree with the engine's own stats
//     (queries, trans attempts/firings, plans costed) summed over the
//     metered runs — the flush path must not lose or double-count.
//
// Environment knobs:
//   PRAIRIE_METERED_JOINS         join count per query  (def 3)
//   PRAIRIE_METERED_REPEATS       timing repeats, best-of  (def 3)
//   PRAIRIE_METERED_OVERHEAD_TOL  overhead gate, percent  (def 2)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/stopwatch.h"

namespace {

using prairie::bench::BuildOodbPair;
using prairie::bench::EnvInt;
using prairie::bench::JsonWriter;
using prairie::common::MetricsRegistry;
using prairie::volcano::Optimizer;
using prairie::volcano::OptimizerOptions;
using prairie::volcano::RuleSet;
using prairie::volcano::VolcanoMetrics;

}  // namespace

int main() {
  const int joins = EnvInt("PRAIRIE_METERED_JOINS", 3);
  const int repeats = EnvInt("PRAIRIE_METERED_REPEATS", 3);
  const int tol_pct = EnvInt("PRAIRIE_METERED_OVERHEAD_TOL", 2);

  auto pair = BuildOodbPair();
  if (!pair.ok()) {
    std::fprintf(stderr, "bench_metrics: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  const RuleSet& rules = *pair->emitted;

  // Private registry: the bench gates on its own counters, so the series
  // must start at zero regardless of what else ran in this process.
  MetricsRegistry registry;
  VolcanoMetrics metrics = VolcanoMetrics::ForRuleSet(&registry, rules);

  std::printf(
      "metrics overhead: Q1..Q8, %d joins, best of %d runs, gate: median "
      "<= %d%%\n\n",
      joins, repeats, tol_pct);
  std::printf("%6s %12s %12s %10s\n", "query", "plain", "metered",
              "overhead");

  JsonWriter json("metrics");
  std::vector<double> overheads;
  uint64_t want_queries = 0;
  size_t want_trans_attempts = 0;
  size_t want_trans_fired = 0;
  size_t want_plans_costed = 0;

  for (int q = 1; q <= 8; ++q) {
    prairie::workload::QuerySpec spec =
        prairie::workload::PaperQuery(q, joins, 1);
    auto w = prairie::workload::MakeWorkload(*rules.algebra, spec);
    if (!w.ok()) {
      std::fprintf(stderr, "bench_metrics: Q%d: %s\n", q,
                   w.status().ToString().c_str());
      return 1;
    }

    // Plain: the production default (no bundle; one null check per site).
    double plain = -1;
    for (int rep = 0; rep < repeats; ++rep) {
      Optimizer optimizer(&rules, &w->catalog);
      prairie::common::Stopwatch sw;
      auto plan = optimizer.Optimize(*w->query);
      const double t = sw.ElapsedSeconds();
      if (!plan.ok()) {
        std::fprintf(stderr, "bench_metrics: Q%d: %s\n", q,
                     plan.status().ToString().c_str());
        return 1;
      }
      if (plain < 0 || t < plain) plain = t;
    }

    // Metered: same search flushing into the shared bundle.
    double metered = -1;
    for (int rep = 0; rep < repeats; ++rep) {
      OptimizerOptions options;
      options.metrics = &metrics;
      Optimizer optimizer(&rules, &w->catalog, options);
      prairie::common::Stopwatch sw;
      auto plan = optimizer.Optimize(*w->query);
      const double t = sw.ElapsedSeconds();
      if (!plan.ok()) {
        std::fprintf(stderr, "bench_metrics: Q%d (metered): %s\n", q,
                     plan.status().ToString().c_str());
        return 1;
      }
      if (metered < 0 || t < metered) metered = t;
      ++want_queries;
      want_trans_attempts += optimizer.stats().trans_attempts;
      want_trans_fired += optimizer.stats().trans_fired;
      want_plans_costed += optimizer.stats().plans_costed;
    }

    const double overhead_pct = 100.0 * (metered / plain - 1.0);
    overheads.push_back(overhead_pct);
    json.RecordRaw("Q" + std::to_string(q) + "/plain", plain * 1e6, "");
    char extra[96];
    std::snprintf(extra, sizeof(extra), "\"overhead_pct\":%.2f",
                  overhead_pct);
    json.RecordRaw("Q" + std::to_string(q) + "/metered", metered * 1e6,
                   extra);
    std::printf("%6s %10.2fus %10.2fus %+9.1f%%\n",
                ("Q" + std::to_string(q)).c_str(), plain * 1e6, metered * 1e6,
                overhead_pct);
    std::fflush(stdout);
  }

  std::sort(overheads.begin(), overheads.end());
  const double median =
      (overheads[3] + overheads[4]) / 2.0;  // 8 queries, fixed
  std::printf("\nmedian overhead: %+.2f%% (%zu series registered)\n", median,
              registry.NumSeries());

  bool ok = true;
#if PRAIRIE_TRACING
  // Counter / stats agreement over all metered runs.
  struct Check {
    const char* name;
    uint64_t got;
    uint64_t want;
  };
  const Check checks[] = {
      {"queries", metrics.queries->Value(), want_queries},
      {"trans_attempts", metrics.trans_attempts->Value(),
       want_trans_attempts},
      {"trans_fired", metrics.trans_fired->Value(), want_trans_fired},
      {"plans_costed", metrics.plans_costed->Value(), want_plans_costed},
  };
  for (const Check& c : checks) {
    if (c.got != c.want) {
      std::fprintf(stderr,
                   "bench_metrics: FAILED — counter %s is %llu, engine "
                   "stats sum to %llu\n",
                   c.name, static_cast<unsigned long long>(c.got),
                   static_cast<unsigned long long>(c.want));
      ok = false;
    }
  }
#endif
  if (median > static_cast<double>(tol_pct)) {
    std::fprintf(stderr,
                 "bench_metrics: FAILED — median overhead %.2f%% exceeds "
                 "%d%% budget\n",
                 median, tol_pct);
    ok = false;
  }
  return ok ? 0 : 1;
}
