// Command-line optimizer: loads a rule specification, generates one of the
// paper's workloads (one query, a batch of seeds, or a Zipfian traffic
// stream), optimizes it, and prints the plans, their costs and the search
// statistics. `prairie_opt --help` lists every flag with the run modes it
// applies to; DESIGN.md §6-§8 and docs/OBSERVABILITY.md describe the
// reports.

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "algebra/descriptor_store.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dsl/parser.h"
#include "exec/builder.h"
#include "exec/stats.h"
#include "optimizers/executors.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/relational.h"
#include "p2v/translator.h"
#include "volcano/batch.h"
#include "volcano/engine.h"
#include "volcano/inspect.h"
#include "volcano/profile.h"
#include "workload/traffic.h"
#include "workload/workload.h"

namespace algebra = prairie::algebra;
namespace common = prairie::common;
namespace exec = prairie::exec;
namespace volcano = prairie::volcano;
namespace workload = prairie::workload;

namespace {

// --execute shrinks the generated base classes to executable sizes (the
// default workload cardinalities, up to 10k rows, make worst-case joins
// take minutes; these match the integration tests' enumerable scale).
constexpr int kExecMinCard = 16;
constexpr int kExecMaxCard = 256;

/// Run modes, one bit each so a flag can name every mode it applies to.
enum Mode : unsigned {
  kSingle = 1,   // one query, optimized and optionally executed
  kExpand = 2,   // one query, logical expansion only
  kBatch = 4,    // the paper query at seeds S..S+K-1
  kTraffic = 8,  // a Zipfian parameter-varying request stream
  kMany = kBatch | kTraffic,
  kAll = kSingle | kExpand | kMany,
};
constexpr const char* kModeNames[] = {"single-query", "expand-only", "batch",
                                      "traffic"};

/// Everything the flags set; the initializers are the flags' defaults.
struct Settings {
  std::string spec = "oodb";
  int query = 1;
  int joins = 2;
  uint64_t seed = 1;
  workload::JoinShape shape = workload::JoinShape::kChain;
  bool expand_only = false;
  int jobs = -1;  // unset; BatchOptions reads <= 0 as hardware concurrency
  int batch = 0;
  int traffic = 0;
  int repeat = 1;
  bool plan_cache = false;
  size_t plan_cache_entries = 4096;
  volcano::OptimizerOptions options;  // pruning, budgets, param_cache
  std::string trace_path;
  bool profile_rules = false;
  bool explain = false;
  std::string metrics_path;
  std::string dump_memo_path;
  bool execute = false;
  bool analyze = false;
  std::string analyze_path;
};

Mode ModeOf(const Settings& s) {
  if (s.traffic > 0) return kTraffic;
  if (s.jobs >= 0 || s.batch > 1) return kBatch;
  return s.expand_only ? kExpand : kSingle;
}

/// Parses a whole numeric flag value into `*out`: the entire string must
/// be one number of T's type (no sign on an unsigned type, no trailing
/// text) within [lo, hi]. Returns false, leaving `*out` alone, otherwise —
/// including for a missing (null) value.
template <typename T>
bool ParseNumber(const char* text, T* out, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  T v{};
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) return false;
  *out = v;
  return true;
}

/// How a flag takes its value.
enum Kind {
  kSwitch,    // no value
  kValue,     // the next argument, or --flag=VALUE
  kOptional,  // nothing, or --flag=VALUE
};

struct Flag {
  const char* name;
  Kind kind;
  unsigned modes;    ///< Mode bits the flag applies to.
  const char* arg;   ///< The value's placeholder in --help.
  const char* help;  ///< One line of --help.
  /// Stores the flag in `s`; `value` is null for a switch or an omitted
  /// optional value. False rejects the value (a usage error).
  bool (*set)(Settings& s, const char* value);
};

const Flag kFlags[] = {
    {"--spec", kValue, kAll, "relational|oodb|FILE",
     "rule specification (default oodb)",
     [](Settings& s, const char* v) { s.spec = v; return true; }},
    {"--query", kValue, kSingle | kExpand | kBatch, "1..8",
     "paper query to generate (default 1)",
     [](Settings& s, const char* v) { return ParseNumber(v, &s.query, 1, 8); }},
    {"--joins", kValue, kAll, "N", "join count (default 2)",
     [](Settings& s, const char* v) { return ParseNumber(v, &s.joins, 1); }},
    {"--seed", kValue, kAll, "S", "catalog/query seed (default 1)",
     [](Settings& s, const char* v) { return ParseNumber(v, &s.seed, 0); }},
    {"--shape", kValue, kSingle | kExpand | kBatch, "chain|star|clique",
     "join-graph shape (default chain)",
     [](Settings& s, const char* v) {
       const std::string_view shape = v;
       s.shape = shape == "star"     ? workload::JoinShape::kStar
                 : shape == "clique" ? workload::JoinShape::kClique
                                     : workload::JoinShape::kChain;
       return shape == "chain" || shape == "star" || shape == "clique";
     }},
    {"--expand-only", kSwitch, kExpand, "", "stop after logical expansion",
     [](Settings& s, const char*) { s.expand_only = true; return true; }},
    {"--no-prune", kSwitch, kSingle | kMany, "",
     "disable branch-and-bound pruning",
     [](Settings& s, const char*) { s.options.prune = false; return true; }},
    {"--search-budget-ms", kValue, kAll, "MS",
     "anytime budget: stop expanding after MS ms",
     [](Settings& s, const char* v) {
       return ParseNumber(v, &s.options.search_budget_ms, 0);
     }},
    {"--max-groups", kValue, kAll, "N",
     "anytime budget on allocated memo groups",
     [](Settings& s, const char* v) {
       return ParseNumber(v, &s.options.group_budget, 0);
     }},
    {"--jobs", kValue, kMany, "N",
     "worker threads (default 0 = one per core)",
     [](Settings& s, const char* v) { return ParseNumber(v, &s.jobs, 0); }},
    {"--batch", kValue, kBatch, "K", "K queries at seeds S..S+K-1 (default 8)",
     [](Settings& s, const char* v) { return ParseNumber(v, &s.batch, 1); }},
    {"--traffic", kValue, kTraffic, "N",
     "N Zipf-skewed requests over Q1..Q8 skeletons",
     [](Settings& s, const char* v) { return ParseNumber(v, &s.traffic, 0); }},
    {"--repeat", kValue, kSingle | kMany, "R",
     "run the workload R times (round 1 cold)",
     [](Settings& s, const char* v) { return ParseNumber(v, &s.repeat, 1); }},
    {"--plan-cache", kOptional, kSingle | kMany, "ENTRIES",
     "reuse plans by fingerprint (default 4096)",
     [](Settings& s, const char* v) {
       s.plan_cache = true;
       return v == nullptr || ParseNumber(v, &s.plan_cache_entries, 1);
     }},
    {"--param-cache", kOptional, kSingle | kMany, "ENTRIES",
     "plan cache on constant-stripped skeletons",
     [](Settings& s, const char* v) {
       s.plan_cache = s.options.param_cache = true;
       return v == nullptr || ParseNumber(v, &s.plan_cache_entries, 1);
     }},
    {"--trace", kValue, kAll, "FILE", "write the search trace as Chrome JSON",
     [](Settings& s, const char* v) { s.trace_path = v; return true; }},
    {"--profile-rules", kSwitch, kAll, "",
     "print the per-rule attempt/self-time table",
     [](Settings& s, const char*) { s.profile_rules = true; return true; }},
    {"--explain", kSwitch, kSingle, "", "print winning-plan provenance",
     [](Settings& s, const char*) { s.explain = true; return true; }},
    {"--metrics", kValue, kAll, "FILE",
     "write metrics: Prometheus, JSON for .json",
     [](Settings& s, const char* v) { s.metrics_path = v; return true; }},
    {"--dump-memo", kValue, kSingle | kExpand, "FILE",
     "dump the memo: Graphviz DOT, JSON for .json",
     [](Settings& s, const char* v) { s.dump_memo_path = v; return true; }},
    {"--execute", kSwitch, kSingle, "",
     "run the plan on a small generated database",
     [](Settings& s, const char*) { s.execute = true; return true; }},
    {"--analyze", kOptional, kSingle, "FILE.json",
     "EXPLAIN ANALYZE (implies --execute)",
     [](Settings& s, const char* v) {
       s.execute = s.analyze = true;
       if (v != nullptr) s.analyze_path = v;
       return true;
     }},
};

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: prairie_opt [flags]\n"
      "\n"
      "The flags pick the run mode: t = traffic (--traffic N), else b = batch\n"
      "(--jobs, or --batch K > 1), else e = --expand-only, else s = single\n"
      "query. Each flag lists the modes it applies to; a flag the mode\n"
      "ignores is named on stderr.\n"
      "\n");
  for (const Flag& f : kFlags) {
    std::string spelled = f.name;
    if (f.kind == kValue) spelled = spelled + " " + f.arg;
    if (f.kind == kOptional) spelled = spelled + "[=" + f.arg + "]";
    std::string modes = "----";
    for (size_t m = 0; m < modes.size(); ++m) {
      if ((f.modes >> m) & 1u) modes[m] = "sebt"[m];
    }
    std::fprintf(out, "  %-27s %s  %s\n", spelled.c_str(), modes.c_str(),
                 f.help);
  }
  std::fprintf(out,
               "  --version                         print the compiler and "
               "exit\n"
               "  --help                            show this help and exit\n");
}

/// Reports `problem` with `arg`, then the usage; returns the usage exit
/// code.
int Usage(const char* problem, const char* arg) {
  std::fprintf(stderr, "prairie_opt: %s '%s'\n\n", problem, arg);
  PrintUsage(stderr);
  return 2;
}

/// Prints `st` as the run's error; returns the failure exit code.
int Fail(const common::Status& st) {
  std::fprintf(stderr, "prairie_opt: %s\n", st.ToString().c_str());
  return 1;
}

/// Reports an output file that could not be written; returns 1.
int FailFile(const char* what, const std::string& path) {
  std::fprintf(stderr, "prairie_opt: cannot write %s '%s'\n", what,
               path.c_str());
  return 1;
}

/// Compiler id and version for --version, best effort ("gcc 13.2.0",
/// "clang 17.0.1").
std::string CompilerText() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// Writes the process-wide metrics registry to `path`; format picked by
/// extension (.json -> JSON snapshot, anything else -> Prometheus text).
int WriteMetricsFile(const std::string& path) {
  common::MetricsRegistry* reg = common::MetricsRegistry::Global();
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  out << (json ? reg->JsonSnapshot() : reg->PrometheusText());
  out.close();
  if (!out) return FailFile("metrics file", path);
  std::printf("metrics: %zu series -> %s\n", reg->NumSeries(), path.c_str());
  return 0;
}

/// Prints the plan cache's counters; nothing when caching is off.
void ReportPlanCache(const volcano::PlanCache* cache, bool param) {
  if (cache == nullptr) return;
  const volcano::PlanCacheStats cs = cache->stats();
  const auto n = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  const uint64_t probes = cs.hits + cs.misses;
  std::printf(
      "plan cache: %llu hits (%.1f%% hit rate), %llu misses, %llu inserts, "
      "%llu evictions, %llu stale drops (%zu live entries, %zu bytes)\n",
      n(cs.hits),
      probes == 0 ? 0.0 : 100.0 * static_cast<double>(cs.hits) / probes,
      n(cs.misses), n(cs.inserts), n(cs.evictions), n(cs.stale_drops),
      cache->size(), cache->bytes());
  if (param) {
    std::printf(
        "param cache: %llu rebound hits, %llu skeleton inserts, %llu "
        "unrebindable inserts, %llu guard rejects\n",
        n(cs.param_hits), n(cs.param_inserts), n(cs.unrebindable_inserts),
        n(cs.sensitivity_rejects));
  }
}

/// Prints the rule profile (--profile-rules) and writes the Chrome trace
/// (--trace), both from `events`.
int WriteTraceOutputs(const Settings& s, const volcano::RuleSet& rules,
                      const std::vector<common::TraceEvent>& events,
                      size_t dropped) {
  if (s.profile_rules) {
    std::printf("\nrule profile:\n%s",
                volcano::BuildRuleProfile(events, rules, dropped)
                    .ToTable()
                    .c_str());
  }
  if (s.trace_path.empty()) return 0;
  // Wrap-around loss is silent at the ring; the export surfaces it.
  if (dropped > 0) {
    std::fprintf(stderr,
                 "prairie_opt: warning: %zu trace events lost to ring "
                 "wrap-around (exported stream is incomplete)\n",
                 dropped);
  }
  const common::Status st =
      volcano::WriteChromeTrace(s.trace_path, events, rules, dropped);
  if (!st.ok()) return Fail(st);
  std::printf("trace: %zu events -> %s\n", events.size(),
              s.trace_path.c_str());
  return 0;
}

/// The tail of every run: writes the metrics file. Returns `rc`, or 1 if
/// the metrics file cannot be written.
int Finish(const Settings& s, int rc) {
  if (s.metrics_path.empty()) return rc;
  return WriteMetricsFile(s.metrics_path) == 0 ? rc : 1;
}

/// Batch and traffic mode: both sources run through one BatchOptimizer,
/// --repeat times, and report per-query errors (a batch also prints each
/// plan), throughput, latency percentiles and the shared store.
int RunMany(const Settings& s, const volcano::RuleSet& rules) {
  const algebra::Algebra& alg = *rules.algebra;
  // Traffic requests borrow their catalogs from the generator, and batch
  // queries point into `workloads`: both outlive the run.
  std::optional<workload::TrafficGenerator> gen;
  std::vector<workload::TrafficRequest> requests;
  std::vector<workload::Workload> workloads;
  std::vector<volcano::BatchQuery> queries;
  if (s.traffic > 0) {
    workload::TrafficOptions topt;
    topt.num_joins = s.joins;
    topt.seed = s.seed;
    auto made = workload::TrafficGenerator::Make(alg, topt);
    if (!made.ok()) return Fail(made.status());
    gen.emplace(std::move(*made));
    for (int i = 0; i < s.traffic; ++i) {
      requests.push_back(gen->Next());
      queries.push_back(
          volcano::BatchQuery{requests.back().query.get(),
                              requests.back().catalog});
    }
  } else {
    const int count = s.batch > 0 ? s.batch : 8;
    workloads.reserve(static_cast<size_t>(count));
    for (int k = 0; k < count; ++k) {
      workload::QuerySpec qspec = workload::PaperQuery(
          s.query, s.joins, s.seed + static_cast<uint64_t>(k));
      qspec.shape = s.shape;
      auto w = workload::MakeWorkload(alg, qspec);
      if (!w.ok()) {
        return Fail(w.status().WithContext("seed " +
                                           std::to_string(qspec.seed)));
      }
      workloads.push_back(std::move(*w));
      queries.push_back(volcano::BatchQuery{workloads.back().query.get(),
                                            &workloads.back().catalog});
    }
  }

  volcano::BatchOptions bopt;
  bopt.jobs = s.jobs;
  bopt.optimizer = s.options;
  if (s.plan_cache) bopt.plan_cache_entries = s.plan_cache_entries;
  if (!s.trace_path.empty() || s.profile_rules) {
    bopt.trace_capacity = common::RingBufferSink::kDefaultCapacity;
  }
  volcano::BatchOptimizer batcher(&rules, bopt);

  // Round 1 is cold; with a plan cache later rounds are served (mostly)
  // warm.
  std::vector<volcano::BatchResult> results;
  std::vector<double> seconds;  // every query of every round
  std::vector<common::TraceEvent> events;
  size_t dropped = 0;
  common::Stopwatch sw;
  for (int round = 1; round <= s.repeat; ++round) {
    common::Stopwatch round_sw;
    results = batcher.OptimizeAll(queries);
    for (const volcano::BatchResult& r : results) seconds.push_back(r.seconds);
    events.insert(events.end(), batcher.trace_events().begin(),
                  batcher.trace_events().end());
    dropped += batcher.trace_dropped();
    if (s.repeat > 1) {
      const double round_wall = round_sw.ElapsedSeconds();
      std::printf("round %d/%d: %.2f ms (%.1f queries/s)\n", round, s.repeat,
                  round_wall * 1e3,
                  static_cast<double>(results.size()) / round_wall);
    }
  }
  const double wall = sw.ElapsedSeconds();

  int failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const volcano::BatchResult& r = results[i];
    if (r.plan.ok() && s.traffic > 0) continue;  // traffic lists errors only
    const std::string label =
        s.traffic > 0 ? "request " + std::to_string(i) + " (skeleton " +
                            std::to_string(requests[i].skeleton) + ")"
                      : "Q" + std::to_string(s.query) + " seed " +
                            std::to_string(s.seed + i);
    if (r.plan.ok()) {
      std::printf("%s: cost %.2f  %s\n", label.c_str(), r.plan->cost,
                  r.plan->root->ToString(alg).c_str());
    } else {
      std::printf("%s: ERROR %s\n", label.c_str(),
                  r.plan.status().ToString().c_str());
      ++failures;
    }
  }
  const size_t total = results.size() * static_cast<size_t>(s.repeat);
  std::printf(
      "\n%s: %zu queries on %d worker(s) in %.2f ms (%.1f queries/s)\n",
      s.traffic > 0 ? "traffic" : "batch", total, batcher.jobs(), wall * 1e3,
      static_cast<double>(total) / wall);
  std::sort(seconds.begin(), seconds.end());
  const auto us = [&](size_t p) {
    return seconds[(seconds.size() - 1) * p / 100] * 1e6;
  };
  std::printf("latency: p50 %.1f us, p90 %.1f us, p99 %.1f us\n", us(50),
              us(90), us(99));
  const algebra::DescriptorStore* store = batcher.shared_store();
  std::printf("shared store: %zu descriptors, %.1f%% intern hit rate\n",
              store->size(), 100.0 * store->HitRate());
  ReportPlanCache(batcher.plan_cache(), s.options.param_cache);
  if (int rc = WriteTraceOutputs(s, rules, events, dropped); rc != 0) {
    return rc;
  }
  return Finish(s, failures == 0 ? 0 : 1);
}

/// --execute/--analyze: runs `plan` over a database generated from the
/// catalog and prints the row count (and the EXPLAIN ANALYZE tree).
/// Execution spans join `sink`, on the search's timeline.
int Execute(const Settings& s, const algebra::Algebra& alg,
            const workload::Workload& w, const volcano::Plan& plan,
            common::RingBufferSink* sink) {
  auto db = workload::MakeDatabase(w.catalog, s.seed);
  if (!db.ok()) return Fail(db.status());
  exec::ExecutorRegistry registry;
  const common::Status st = prairie::opt::RegisterStandardExecutors(&registry);
  if (!st.ok()) return Fail(st);
  algebra::ExprPtr plan_expr = plan.root->ToExpr(alg);
  exec::ExecStats stats;
  auto iter = registry.Build(*plan_expr, alg, *db, &stats);
  if (!iter.ok()) {
    // A plan whose algorithm has no executor is a usage-level error (the
    // spec defines algorithms the binary cannot run), not a crash.
    Fail(iter.status());
    return iter.status().code() == common::StatusCode::kNotFound ? 2 : 1;
  }
  common::Stopwatch exec_sw;
  auto rows = exec::CollectAll(iter->get());
  if (!rows.ok()) return Fail(rows.status());
  std::printf("\nexecuted: %zu result rows in %.3f ms\n", rows->size(),
              exec_sw.ElapsedSeconds() * 1e3);
  if (s.analyze) {
    std::printf("\nexplain analyze (est vs actual rows, q = Q-error):\n%s",
                stats.ToText().c_str());
    if (!s.analyze_path.empty()) {
      std::ofstream out(s.analyze_path, std::ios::out | std::ios::trunc);
      out << stats.ToJson() << "\n";
      out.close();
      if (!out) return FailFile("analyze file", s.analyze_path);
      std::printf("analyze: stats -> %s\n", s.analyze_path.c_str());
    }
  }
  if (!s.metrics_path.empty()) {
    exec::ExecMetrics::ForRegistry(common::MetricsRegistry::Global())
        .FlushExecStats(stats);
  }
  if (sink != nullptr) stats.EmitTrace(sink);
  return 0;
}

/// Single-query and expand-only mode: optimizes (or only expands) one
/// query and prints its plan and statistics, plus whatever --explain,
/// --execute/--analyze and --dump-memo ask for.
int RunSingle(const Settings& s, const volcano::RuleSet& rules) {
  const algebra::Algebra& alg = *rules.algebra;
  workload::QuerySpec qspec = workload::PaperQuery(s.query, s.joins, s.seed);
  qspec.shape = s.shape;
  if (s.execute) {
    qspec.min_card = kExecMinCard;
    qspec.max_card = kExecMaxCard;
  }
  auto w = workload::MakeWorkload(alg, qspec);
  if (!w.ok()) return Fail(w.status());
  std::printf("catalog:\n%s\n\n", w->catalog.ToString().c_str());
  std::printf("query Q%d (%d joins, seed %llu):\n  %s\n\n", s.query, s.joins,
              static_cast<unsigned long long>(s.seed),
              w->query->ToString(alg).c_str());

  volcano::OptimizerOptions options = s.options;
  std::unique_ptr<common::RingBufferSink> sink;
  if (!s.trace_path.empty() || s.profile_rules) {
    sink = std::make_unique<common::RingBufferSink>();
    options.trace = sink.get();
  }
  // The cache outlives every per-round optimizer; its keys intern through
  // one store that all rounds share.
  std::unique_ptr<algebra::DescriptorStore> cache_store;
  std::unique_ptr<volcano::PlanCache> cache;
  if (s.plan_cache) {
    cache_store = std::make_unique<algebra::DescriptorStore>(&alg.properties());
    volcano::PlanCacheOptions copt;
    copt.max_entries = s.plan_cache_entries;
    cache = std::make_unique<volcano::PlanCache>(cache_store.get(), copt);
    options.plan_cache = cache.get();
  }
  // --repeat: rounds 1..R-1 run here (round 1 cold; with --plan-cache the
  // rest warm); the final round below prints the plan and stats.
  for (int round = 1; round < s.repeat; ++round) {
    common::Stopwatch round_sw;
    volcano::Optimizer warm(&rules, &w->catalog, options, cache_store.get());
    auto p = warm.Optimize(*w->query);
    if (!p.ok()) return Fail(p.status());
    std::printf("round %d/%d: %.3f ms%s\n", round, s.repeat,
                round_sw.ElapsedSeconds() * 1e3,
                warm.stats().plan_from_cache ? " (cached)" : "");
  }
  volcano::Optimizer optimizer(&rules, &w->catalog, options,
                               cache_store.get());
  if (s.expand_only) {
    auto groups = optimizer.ExpandOnly(*w->query);
    if (!groups.ok()) return Fail(groups.status());
    std::printf("logical search space: %zu equivalence classes, %zu "
                "expressions\n",
                *groups, optimizer.stats().mexprs);
  } else {
    auto plan = optimizer.Optimize(*w->query);
    if (!plan.ok()) return Fail(plan.status());
    std::printf("plan (cost %.2f):\n%s\n", plan->cost,
                plan->root->TreeString(alg).c_str());
    const volcano::OptimizerStats& stats = optimizer.stats();
    std::printf(
        "stats: %zu equivalence classes, %zu logical expressions,\n"
        "       %zu trans-rule attempts, %zu trans-rule firings,\n"
        "       %zu impl-rule attempts, %zu plans costed, %zu enforcer "
        "attempts,\n"
        "       %zu interned descriptors (%.1f%% intern hit rate)\n",
        stats.groups, stats.mexprs, stats.trans_attempts, stats.trans_fired,
        stats.impl_attempts, stats.plans_costed, stats.enforcer_attempts,
        stats.desc_interned, 100.0 * stats.InternHitRate());
    if (stats.plan_from_cache) {
      std::printf("(plan served from the cache; the search did not run)\n");
    }
    if (stats.budget_exhausted) {
      std::printf(
          "(anytime budget exhausted: best plan over the truncated search "
          "space)\n");
    }
    ReportPlanCache(cache.get(), s.options.param_cache);
    if (s.explain) {
      std::printf("\nprovenance (winner -> rule -> source expression):\n%s",
                  optimizer.ExplainWinner().c_str());
    }
    if (s.execute) {
      if (int rc = Execute(s, alg, *w, *plan, sink.get()); rc != 0) return rc;
    }
  }
  if (sink != nullptr) {
    const int rc =
        WriteTraceOutputs(s, rules, sink->Snapshot(), sink->dropped());
    if (rc != 0) return rc;
  }
  if (!s.dump_memo_path.empty()) {
    const volcano::Memo& memo = optimizer.memo();
    const common::Status st =
        volcano::WriteMemoDump(s.dump_memo_path, memo, rules);
    if (!st.ok()) return Fail(st);
    std::printf("memo: %zu groups, %zu expressions -> %s\n", memo.NumGroups(),
                memo.NumExprs(), s.dump_memo_path.c_str());
  }
  return Finish(s, 0);
}

}  // namespace

int main(int argc, char** argv) {
  // Every flag is validated as it is read; the run mode depends on flags
  // that may come last, so the values are applied afterwards.
  std::vector<std::pair<const Flag*, const char*>> given;
  Settings probe;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--version") {
      std::printf("prairie_opt (%s)\n", CompilerText().c_str());
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    const size_t eq = arg.find('=');
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return arg.substr(0, eq) == f.name; });
    if (flag == std::end(kFlags)) return Usage("unknown flag", argv[i]);
    const char* value = nullptr;
    if (eq != std::string_view::npos) {
      value = argv[i] + eq + 1;
    } else if (flag->kind == kValue && i + 1 < argc) {
      value = argv[++i];
    }
    // A switch takes no value, a value flag needs one, and no value is
    // empty.
    const bool well_formed = value == nullptr
                                 ? flag->kind != kValue
                                 : flag->kind != kSwitch && *value != '\0';
    if (!well_formed || !flag->set(probe, value)) {
      return Usage("bad or missing value for", flag->name);
    }
    given.emplace_back(flag, value);
  }
  // A flag the mode ignores is not applied at all, so it cannot take
  // effect by accident.
  const Mode mode = ModeOf(probe);
  Settings s;
  std::string ignored;
  for (const auto& [flag, value] : given) {
    if ((flag->modes & mode) != 0) {
      flag->set(s, value);
    } else {
      ignored.append(" ").append(flag->name);
    }
  }
  if (!ignored.empty()) {
    std::fprintf(stderr, "prairie_opt: %s mode ignores%s\n",
                 kModeNames[std::countr_zero(static_cast<unsigned>(mode))],
                 ignored.c_str());
  }

  std::string text;
  if (s.spec == "relational") {
    text = prairie::opt::RelationalSpecText();
    if (s.query > 2) {
      std::fprintf(stderr,
                   "prairie_opt: the relational algebra supports only "
                   "Q1/Q2 (E1)\n");
      return 1;
    }
  } else if (s.spec == "oodb") {
    text = prairie::opt::OodbSpecText();
  } else {
    std::ifstream in(s.spec);
    if (!in) {
      std::fprintf(stderr, "prairie_opt: cannot read '%s'\n", s.spec.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  auto rules =
      prairie::dsl::ParseRuleSet(text, prairie::opt::StandardHelpers());
  if (!rules.ok()) return Fail(rules.status());
  auto volcano_rules = prairie::p2v::Translate(*rules, nullptr);
  if (!volcano_rules.ok()) return Fail(volcano_rules.status());
  const volcano::RuleSet& rule_set = **volcano_rules;

  // The metrics bundle registers every series once, up front. Batch
  // workers flush into the same sharded counters without contention.
  volcano::VolcanoMetrics metrics;
  if (!s.metrics_path.empty()) {
    metrics =
        volcano::VolcanoMetrics::ForRegistry(common::MetricsRegistry::Global());
    s.options.metrics = &metrics;
  }
  return (mode & kMany) != 0 ? RunMany(s, rule_set) : RunSingle(s, rule_set);
}
