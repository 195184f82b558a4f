// Executor-observability overhead over the Q1..Q8 OODB workload: what do
// the per-operator runtime stats cost on the execution path?
//
// Each query is optimized once (the plan is not what is being measured),
// an in-memory database is populated at executable cardinalities, and the
// winning plan is then executed as interleaved back-to-back pairs — plain
// (the production default: no collector, factories' iterators run bare)
// then instrumented (an ExecStats collector wraps every operator in an
// InstrumentedIterator) — so each pair's time ratio cancels host load and
// frequency drift. The design goal mirrors bench_metrics: counting a row
// is one increment, and Next() latency is *sampled* 1-in-64, so the gate
// holds the MEDIAN overhead ratio to a small budget.
//
// Self-checks (exit non-zero on failure):
//   - instrumented results are SameResult-identical to plain results,
//   - the root operator's recorded rows equal the CollectAll row count
//     and every node's next_calls covers its rows (exactness: stats are
//     counted on every call, only timing is sampled),
//   - the median instrumented/plain overhead pooled over all timed pairs
//     is <= PRAIRIE_EXEC_OVERHEAD_TOL percent (default 2%; per-query
//     maxima are micro-benchmark noise).
//
// Environment knobs:
//   PRAIRIE_EXEC_OBSERVE_JOINS    join count per query  (def 2)
//   PRAIRIE_EXEC_OBSERVE_REPEATS  timed pairs per query  (def 9)
//   PRAIRIE_EXEC_OVERHEAD_TOL     overhead gate, percent  (def 2)
//   PRAIRIE_EXEC_OBSERVE_MIN_CARD / _MAX_CARD  base-class rows (16 / 256)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "exec/builder.h"
#include "exec/stats.h"
#include "optimizers/executors.h"
#include "volcano/engine.h"
#include "workload/workload.h"

namespace {

using prairie::bench::BuildOodbPair;
using prairie::bench::EnvInt;
using prairie::bench::JsonWriter;
using prairie::exec::CollectAll;
using prairie::exec::ExecStats;
using prairie::exec::ExecutorRegistry;
using prairie::exec::Row;
using prairie::exec::SameResult;
using prairie::volcano::Optimizer;
using prairie::volcano::RuleSet;

}  // namespace

int main() {
  const int joins = EnvInt("PRAIRIE_EXEC_OBSERVE_JOINS", 2);
  const int repeats = EnvInt("PRAIRIE_EXEC_OBSERVE_REPEATS", 9);
  const int tol_pct = EnvInt("PRAIRIE_EXEC_OVERHEAD_TOL", 2);
  const int min_card = EnvInt("PRAIRIE_EXEC_OBSERVE_MIN_CARD", 16);
  const int max_card = EnvInt("PRAIRIE_EXEC_OBSERVE_MAX_CARD", 256);

  auto pair = BuildOodbPair();
  if (!pair.ok()) {
    std::fprintf(stderr, "bench_exec_observe: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  const RuleSet& rules = *pair->emitted;

  ExecutorRegistry registry;
  if (auto st = prairie::opt::RegisterStandardExecutors(&registry);
      !st.ok()) {
    std::fprintf(stderr, "bench_exec_observe: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf(
      "exec observability overhead: Q1..Q8, %d joins, cards %d..%d, best "
      "of %d runs, gate: median <= %d%%\n\n",
      joins, min_card, max_card, repeats, tol_pct);
  std::printf("%6s %10s %12s %12s %10s\n", "query", "rows", "plain",
              "instrumented", "overhead");

  JsonWriter json("exec_observe");
  std::vector<double> all_ratios;
  bool ok = true;

  for (int q = 1; q <= 8; ++q) {
    prairie::workload::QuerySpec spec =
        prairie::workload::PaperQuery(q, joins, 1);
    spec.min_card = min_card;
    spec.max_card = max_card;
    auto w = prairie::workload::MakeWorkload(*rules.algebra, spec);
    if (!w.ok()) {
      std::fprintf(stderr, "bench_exec_observe: Q%d: %s\n", q,
                   w.status().ToString().c_str());
      return 1;
    }
    Optimizer optimizer(&rules, &w->catalog);
    auto plan = optimizer.Optimize(*w->query);
    if (!plan.ok()) {
      std::fprintf(stderr, "bench_exec_observe: Q%d: %s\n", q,
                   plan.status().ToString().c_str());
      return 1;
    }
    auto db = prairie::workload::MakeDatabase(w->catalog, spec.seed);
    if (!db.ok()) {
      std::fprintf(stderr, "bench_exec_observe: Q%d: %s\n", q,
                   db.status().ToString().c_str());
      return 1;
    }
    const prairie::algebra::ExprPtr plan_expr =
        plan->root->ToExpr(*rules.algebra);

    auto run = [&](ExecStats* stats,
                   std::vector<Row>* out) -> prairie::common::Status {
      auto it = stats == nullptr
                    ? registry.Build(*plan_expr, *rules.algebra, *db)
                    : registry.Build(*plan_expr, *rules.algebra, *db, stats);
      if (!it.ok()) return it.status();
      auto rows = CollectAll(it->get());
      if (!rows.ok()) return rows.status();
      *out = std::move(*rows);
      return prairie::common::Status::OK();
    };

    // Interleave the two configurations rep by rep (plain, instrumented,
    // plain, ...) so warmup, allocator state, and frequency drift hit both
    // sides equally — at these run times a sequential A*N-then-B*N layout
    // reads as several percent of phantom overhead. The first interleaved
    // pair is warmup (not timed) and sizes an inner loop that keeps every
    // timed region above ~2ms; the sub-millisecond queries are otherwise
    // timer-noise-bound.
    double plain = -1;
    double instrumented = -1;
    int inner = 1;
    std::vector<double> ratios;  ///< instrumented/plain per timed rep.
    std::vector<Row> plain_rows;
    std::vector<Row> inst_rows;
    for (int rep = 0; rep <= repeats; ++rep) {
      std::vector<Row> rows;
      prairie::common::Stopwatch sw;
      for (int i = 0; i < inner; ++i) {
        if (auto st = run(nullptr, &rows); !st.ok()) {
          std::fprintf(stderr, "bench_exec_observe: Q%d: %s\n", q,
                       st.ToString().c_str());
          return 1;
        }
      }
      const double t = sw.ElapsedSeconds() / inner;
      if (rep > 0 && (plain < 0 || t < plain)) plain = t;
      if (rep == 0)
        inner = static_cast<int>(
            std::clamp(0.002 / std::max(t, 1e-9), 1.0, 64.0));
      plain_rows = std::move(rows);

      std::unique_ptr<ExecStats> stats;
      rows.clear();
      prairie::common::Stopwatch sw2;
      for (int i = 0; i < inner; ++i) {
        stats = std::make_unique<ExecStats>();
        if (auto st = run(stats.get(), &rows); !st.ok()) {
          std::fprintf(stderr,
                       "bench_exec_observe: Q%d (instrumented): %s\n", q,
                       st.ToString().c_str());
          return 1;
        }
      }
      const double t2 = sw2.ElapsedSeconds() / inner;
      if (rep > 0) {
        if (instrumented < 0 || t2 < instrumented) instrumented = t2;
        ratios.push_back(t2 / t);
      }
#if PRAIRIE_TRACING
      // Exactness: stats count every call, only timing is sampled.
      if (stats->root() == nullptr || stats->root()->rows != rows.size()) {
        std::fprintf(
            stderr,
            "bench_exec_observe: FAILED — Q%d root recorded %llu rows, "
            "CollectAll returned %zu\n",
            q,
            static_cast<unsigned long long>(
                stats->root() == nullptr ? 0 : stats->root()->rows),
            rows.size());
        ok = false;
      }
      if (stats->TotalNextCalls() < stats->TotalRows()) {
        std::fprintf(stderr,
                     "bench_exec_observe: FAILED — Q%d next_calls %llu < "
                     "rows %llu\n",
                     q,
                     static_cast<unsigned long long>(
                         stats->TotalNextCalls()),
                     static_cast<unsigned long long>(stats->TotalRows()));
        ok = false;
      }
#endif
      inst_rows = std::move(rows);
    }

    if (!SameResult(plain_rows, inst_rows)) {
      std::fprintf(stderr,
                   "bench_exec_observe: FAILED — Q%d instrumented result "
                   "differs from plain\n",
                   q);
      ok = false;
    }

    // The per-query overhead is the median ratio of back-to-back pairs:
    // each pair runs under the same instantaneous machine conditions, so
    // the ratio cancels the frequency/load drift that makes independently
    // taken best-of minima read as phantom overhead on busy hosts.
    all_ratios.insert(all_ratios.end(), ratios.begin(), ratios.end());
    std::sort(ratios.begin(), ratios.end());
    const double overhead_pct =
        100.0 * (ratios[ratios.size() / 2] - 1.0);
    json.RecordRaw("Q" + std::to_string(q) + "/plain", plain * 1e6, "");
    char extra[96];
    std::snprintf(extra, sizeof(extra), "\"overhead_pct\":%.2f",
                  overhead_pct);
    json.RecordRaw("Q" + std::to_string(q) + "/instrumented",
                   instrumented * 1e6, extra);
    std::printf("%6s %10zu %10.2fus %10.2fus %+9.1f%%\n",
                ("Q" + std::to_string(q)).c_str(), plain_rows.size(),
                plain * 1e6, instrumented * 1e6, overhead_pct);
    std::fflush(stdout);
  }

  // Gate on the median over ALL interleaved pairs (8 queries x repeats
  // samples): per-query medians of a handful of ratios still wander a few
  // percent under host load; the pooled median is stable.
  std::sort(all_ratios.begin(), all_ratios.end());
  const double median =
      100.0 * (all_ratios[all_ratios.size() / 2] - 1.0);
  std::printf("\nmedian overhead: %+.2f%% (over %zu timed pairs)\n", median,
              all_ratios.size());

  if (median > static_cast<double>(tol_pct)) {
    std::fprintf(stderr,
                 "bench_exec_observe: FAILED — median overhead %.2f%% "
                 "exceeds %d%% budget\n",
                 median, tol_pct);
    ok = false;
  }
  return ok ? 0 : 1;
}
