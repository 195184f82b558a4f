// Observability overhead over the Q1..Q8 OODB workload at 2 joins: what
// does each observability layer cost against the plain default path?
//
// Each layer is timed against the plain configuration of the same work
// with bench_util's TimePairs (interleaved back-to-back pairs whose time
// ratios cancel host load and frequency drift):
//   metrics  Optimize with a VolcanoMetrics bundle over a private registry
//            (every counter flushed once per query from the stats ledger).
//   trace    Optimize into a full-detail RingBufferSink.
//   exec     execute the winning plan with an ExecStats collector wrapping
//            every operator (rows counted, Next() timed 1-in-64).
// A layer's overhead is the median layer/plain ratio pooled over all its
// timed pairs (8 queries x PRAIRIE_OVERHEAD_REPEATS); the per-query
// medians printed alongside still wander a few percent under host load.
//
// Self-checks (exit non-zero on failure):
//   - the metrics bundle's query count and every counter row equal the
//     engine stats summed over the metered runs;
//   - the rule profile built from the trace counts every trans firing
//     (checked when the ring dropped nothing);
//   - instrumented execution is SameResult with plain execution, the root
//     operator's rows equal the CollectAll size, and next calls are not
//     fewer than rows;
//   - the pooled median overhead of metrics and exec is at most
//     PRAIRIE_OVERHEAD_TOL percent (default 2); trace is reported only.
//
// Environment knobs:
//   PRAIRIE_OVERHEAD_REPEATS  timed pairs per query and layer  (def 13)
//   PRAIRIE_OVERHEAD_TOL      overhead gate, percent           (def 2)

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "exec/builder.h"
#include "exec/stats.h"
#include "optimizers/executors.h"
#include "volcano/engine.h"
#include "volcano/profile.h"
#include "workload/workload.h"

namespace {

using prairie::common::FunctionRef;
using prairie::common::RingBufferSink;
using prairie::common::Status;
using prairie::exec::ExecStats;
using prairie::exec::Row;
using prairie::volcano::Optimizer;
using prairie::volcano::OptimizerOptions;
using prairie::volcano::VolcanoMetrics;

constexpr int kJoins = 2;
// Executable base-class sizes: the default workload's classes of up to
// 10k rows make worst-case joins take minutes.
constexpr int kMinCard = 16;
constexpr int kMaxCard = 256;

enum Layer { kMetrics, kTrace, kExec, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {"metrics", "trace", "exec"};

}  // namespace

int main() {
  const int repeats = prairie::bench::EnvInt("PRAIRIE_OVERHEAD_REPEATS", 13);
  const int tol_pct = prairie::bench::EnvInt("PRAIRIE_OVERHEAD_TOL", 2);

  auto pair = prairie::bench::BuildOodbPair();
  if (!pair.ok()) {
    std::fprintf(stderr, "bench_overhead: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  const prairie::volcano::RuleSet& rules = *pair->emitted;

  // Private registry: the counter check needs series that start at zero.
  prairie::common::MetricsRegistry registry;
  const VolcanoMetrics metrics = VolcanoMetrics::ForRegistry(&registry);
  const auto rows = VolcanoMetrics::CounterRows();

  prairie::exec::ExecutorRegistry executors;
  if (auto st = prairie::opt::RegisterStandardExecutors(&executors);
      !st.ok()) {
    std::fprintf(stderr, "bench_overhead: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf(
      "observability overhead: Q1..Q8 at %d joins, %d interleaved pairs per "
      "query and layer, gate: pooled median <= %d%% (metrics, exec)\n\n",
      kJoins, repeats, tol_pct);
  std::printf("%6s %-8s %12s %12s %10s\n", "query", "layer", "plain", "on",
              "overhead");

  prairie::bench::JsonWriter json("overhead");
  std::vector<double> pooled[kNumLayers];
  uint64_t want_queries = 0;
  std::array<uint64_t, VolcanoMetrics::kNumCounters> want_rows{};
  bool ok = true;

  for (int q = 1; q <= 8; ++q) {
    const std::string qname = "Q" + std::to_string(q);
    prairie::workload::QuerySpec spec =
        prairie::workload::PaperQuery(q, kJoins, 1);
    spec.min_card = kMinCard;
    spec.max_card = kMaxCard;
    auto w = prairie::workload::MakeWorkload(*rules.algebra, spec);
    if (!w.ok()) {
      std::fprintf(stderr, "bench_overhead: %s: %s\n", qname.c_str(),
                   w.status().ToString().c_str());
      return 1;
    }
    auto db = prairie::workload::MakeDatabase(w->catalog, spec.seed);
    if (!db.ok()) {
      std::fprintf(stderr, "bench_overhead: %s: %s\n", qname.c_str(),
                   db.status().ToString().c_str());
      return 1;
    }

    // One optimization under `options`; `on_done` sees the finished
    // optimizer.
    auto optimize = [&](const OptimizerOptions& options,
                        auto&& on_done) -> Status {
      Optimizer optimizer(&rules, &w->catalog, options);
      auto plan = optimizer.Optimize(*w->query);
      if (!plan.ok()) return plan.status();
      on_done(optimizer);
      return Status::OK();
    };

    const OptimizerOptions plain_opt;
    auto plain = [&]() {
      return optimize(plain_opt, [](const Optimizer&) {});
    };

    OptimizerOptions metered_opt;
    metered_opt.metrics = &metrics;
    auto metered = [&]() {
      return optimize(metered_opt, [&](const Optimizer& o) {
        ++want_queries;
        for (size_t i = 0; i < rows.size(); ++i) {
          want_rows[i] += rows[i].read(o.stats());
        }
      });
    };

    RingBufferSink trace_sink;
    OptimizerOptions traced_opt;
    traced_opt.trace = &trace_sink;
    size_t trans_fired = 0;
    auto traced = [&]() {
      trace_sink.Clear();  // Keep exactly the last run's stream.
      return optimize(traced_opt, [&](const Optimizer& o) {
        trans_fired = o.stats().trans_fired;
      });
    };

    Optimizer planner(&rules, &w->catalog);
    auto plan = planner.Optimize(*w->query);
    if (!plan.ok()) {
      std::fprintf(stderr, "bench_overhead: %s: %s\n", qname.c_str(),
                   plan.status().ToString().c_str());
      return 1;
    }
    const prairie::algebra::ExprPtr plan_expr =
        plan->root->ToExpr(*rules.algebra);
    auto execute = [&](ExecStats* stats, std::vector<Row>* out) -> Status {
      auto it = executors.Build(*plan_expr, *rules.algebra, *db, stats);
      if (!it.ok()) return it.status();
      auto rows = prairie::exec::CollectAll(it->get());
      if (!rows.ok()) return rows.status();
      *out = std::move(*rows);
      return Status::OK();
    };
    std::vector<Row> plain_rows;
    std::vector<Row> inst_rows;
    std::unique_ptr<ExecStats> exec_stats;
    auto plain_exec = [&]() { return execute(nullptr, &plain_rows); };
    auto inst_exec = [&]() {
      exec_stats = std::make_unique<ExecStats>();
      return execute(exec_stats.get(), &inst_rows);
    };

    const FunctionRef<Status()> bases[kNumLayers] = {plain, plain,
                                                     plain_exec};
    const FunctionRef<Status()> layers[kNumLayers] = {metered, traced,
                                                      inst_exec};
    for (int l = 0; l < kNumLayers; ++l) {
      auto t = prairie::bench::TimePairs(repeats, bases[l], layers[l]);
      if (!t.ok()) {
        std::fprintf(stderr, "bench_overhead: %s (%s): %s\n", qname.c_str(),
                     kLayerNames[l], t.status().ToString().c_str());
        return 1;
      }
      pooled[l].insert(pooled[l].end(), t->ratios.begin(), t->ratios.end());
      const double pct = prairie::bench::MedianOverheadPct(t->ratios);
      char extra[96];
      std::snprintf(extra, sizeof(extra),
                    "\"plain_us\":%.3f,\"overhead_pct\":%.2f",
                    t->base_s * 1e6, pct);
      json.RecordRaw(qname + "/" + kLayerNames[l], t->layer_s * 1e6, extra);
      std::printf("%6s %-8s %10.2fus %10.2fus %+9.1f%%\n", qname.c_str(),
                  kLayerNames[l], t->base_s * 1e6, t->layer_s * 1e6, pct);
      std::fflush(stdout);
    }

    if (trace_sink.dropped() == 0 &&
        prairie::volcano::BuildRuleProfile(trace_sink.Snapshot(), rules, 0)
                .TotalTransFired() != trans_fired) {
      std::fprintf(stderr,
                   "bench_overhead: FAILED — %s profile firings differ from "
                   "stats.trans_fired (%zu)\n",
                   qname.c_str(), trans_fired);
      ok = false;
    }
    if (!prairie::exec::SameResult(plain_rows, inst_rows)) {
      std::fprintf(stderr,
                   "bench_overhead: FAILED — %s instrumented result differs "
                   "from plain\n",
                   qname.c_str());
      ok = false;
    }
    // Stats count every call exactly; only timing is sampled.
    const uint64_t root_rows =
        exec_stats->root() == nullptr ? 0 : exec_stats->root()->rows;
    if (exec_stats->root() == nullptr || root_rows != inst_rows.size() ||
        exec_stats->TotalNextCalls() < exec_stats->TotalRows()) {
      std::fprintf(stderr,
                   "bench_overhead: FAILED — %s stats miscount: root "
                   "recorded %llu rows of %zu collected, %llu next calls "
                   "for %llu rows\n",
                   qname.c_str(), static_cast<unsigned long long>(root_rows),
                   inst_rows.size(),
                   static_cast<unsigned long long>(
                       exec_stats->TotalNextCalls()),
                   static_cast<unsigned long long>(exec_stats->TotalRows()));
      ok = false;
    }
  }

  // The bundle's counters against the engine stats of every metered run:
  // the per-query flush must not lose or double-count.
  const auto check = [&](const char* name, uint64_t got, uint64_t want) {
    if (got == want) return;
    std::fprintf(stderr,
                 "bench_overhead: FAILED — counter %s is %llu, engine stats "
                 "sum to %llu\n",
                 name, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ok = false;
  };
  check("prairie_queries_total", metrics.queries->Value(), want_queries);
  for (size_t i = 0; i < rows.size(); ++i) {
    check(rows[i].name, metrics.counters[i]->Value(), want_rows[i]);
  }

  std::printf("\npooled median overhead (%zu timed pairs per layer):\n",
              pooled[0].size());
  for (int l = 0; l < kNumLayers; ++l) {
    const double median = prairie::bench::MedianOverheadPct(pooled[l]);
    const bool gated = l != kTrace;
    std::printf("  %-8s %+6.2f%%%s\n", kLayerNames[l], median,
                gated ? "" : "  (reported, not gated)");
    if (gated && median > static_cast<double>(tol_pct)) {
      std::fprintf(stderr,
                   "bench_overhead: FAILED — %s median overhead %.2f%% "
                   "exceeds %d%% budget\n",
                   kLayerNames[l], median, tol_pct);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
