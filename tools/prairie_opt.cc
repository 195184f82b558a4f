// Command-line optimizer driver: generates one of the paper's workloads
// (or loads a custom Prairie specification), optimizes it, and prints the
// query, the chosen access plan, its cost, and search statistics.
//
//   prairie_opt [--spec relational|oodb|FILE] [--query 1..8]
//               [--joins N] [--seed S] [--expand-only] [--no-prune]
//               [--jobs N] [--batch K] [--plan-cache[=ENTRIES]]
//               [--param-cache[=ENTRIES]] [--traffic N] [--repeat R]
//               [--trace FILE] [--profile-rules] [--explain]
//               [--execute] [--analyze[=FILE.json]]
//               [--metrics FILE] [--dump-memo FILE.{dot,json}]
//               [--timeseries FILE[,MS]] [--slow-ms MS] [--slow-p99 K]
//               [--qerror-limit Q] [--slow-log FILE] [--diag-dir DIR]
//               [--diag-detail full|coarse] [--version] [--help]
//
// With --jobs and/or --batch the driver switches to batch mode: it
// generates K instances of the query (seeds S..S+K-1) and optimizes them
// concurrently on N worker threads through a BatchOptimizer — all workers
// interning into one shared concurrent descriptor store.
//
// --plan-cache enables the fingerprinted plan cache (optionally sized to
// ENTRIES; default 4096) and reports hit/miss/insert/evict/stale counts
// after the run. --repeat R re-optimizes the same workload R times — the
// natural way to watch the cache go from cold to warm. --param-cache
// additionally strips predicate constants out of the cache key, so
// queries differing only in literals share one skeleton entry and hits
// rebind the probe's constants into the cached plan (DESIGN.md §8).
//
// --traffic N switches to traffic mode: a TrafficGenerator emits N
// requests drawn from a Zipf-distributed pool of Q1-Q8-family skeletons
// (per-tenant streams, fresh constants per request) and drives them
// through the optimizer — serially, or on --jobs workers. The report
// shows cache hit rate and optimize-latency percentiles: the
// parameterized cache's headline numbers.
//
// Observability flags:
//   --trace FILE     write the search trace as Chrome trace_event JSON
//                    (load in chrome://tracing or ui.perfetto.dev).
//   --profile-rules  print the per-rule attempt/firing/latency table.
//   --explain        print the winning plan's provenance: which impl rule
//                    or enforcer produced each winner and the trans-rule
//                    chain that derived the implemented expression.
//   --metrics FILE   register the aggregate metrics bundle (counters +
//                    latency histograms) and write the registry after the
//                    run: Prometheus text exposition, or a JSON snapshot
//                    when FILE ends in .json. Works in batch mode too —
//                    workers share the bundle's sharded series.
//   --dump-memo FILE write the finished memo (groups, expressions,
//                    winners, provenance edges) as Graphviz DOT or JSON,
//                    by extension. Single-query mode only.
//
// Execution flags (single-query mode):
//   --execute        populate an in-memory database from the generated
//                    catalog (base classes capped at a few hundred rows so
//                    plans run in milliseconds), build the winning plan
//                    through the ExecutorRegistry, and run it. Exits 2 if
//                    the plan uses an algorithm with no registered
//                    executor.
//   --analyze[=FILE] EXPLAIN ANALYZE (implies --execute): print the plan
//                    annotated per operator with estimated rows, actual
//                    rows, elapsed ns and Q-error max(est/act, act/est);
//                    with =FILE, also write the stats tree as JSON.
//                    Combined with --trace, execution spans land on the
//                    same Chrome timeline as the optimizer's search; with
//                    --metrics, the prairie_exec_* series (incl. the
//                    log-2 Q-error histogram) are flushed to the registry.
//
// Diagnostics (docs/OBSERVABILITY.md):
//   --timeseries FILE[,MS]  windowed metrics: scrape the registry every MS
//                    milliseconds (default 250; 0 = every chunk) and write
//                    one JSON-lines interval-delta record per window —
//                    per-window p50/p99, counter deltas — instead of one
//                    end-of-run aggregate. Traffic/batch modes.
//   --slow-ms MS     anomaly trigger: flag queries slower than MS.
//   --slow-p99 K     adaptive trigger: flag queries slower than K x the
//                    running p99 of the query-latency histogram.
//   --qerror-limit Q flag executed queries whose max operator Q-error
//                    exceeds Q (single-query --execute/--analyze mode).
//   --slow-log FILE  one JSON-lines record per flagged query: fingerprint,
//                    trigger, cache outcome, latency breakdown, top-k rule
//                    latencies, est-vs-actual rows.
//   --diag-dir DIR   on each trigger, write a diagnostic bundle under
//                    DIR/<fingerprint>-<seq>/: manifest.json, the flight-
//                    recorder slice as Chrome trace JSON, a metrics delta,
//                    plan provenance, and (when executing) the EXPLAIN
//                    ANALYZE tree + cardinality feedback.
//   --diag-detail full|coarse  flight-recorder granularity (default
//                    coarse: group-level spans + winners, cheap enough to
//                    stay armed; full adds per-attempt spans).
//   Budget-exhausted searches and plan-cache reject/stale storms also
//   fire; the flight recorder is armed automatically in traffic/batch
//   mode whenever any diagnostics flag is given.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "algebra/descriptor_store.h"
#include "common/buildinfo.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "dsl/parser.h"
#include "exec/builder.h"
#include "exec/feedback.h"
#include "exec/stats.h"
#include "optimizers/executors.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/relational.h"
#include "p2v/translator.h"
#include "volcano/batch.h"
#include "volcano/diag.h"
#include "volcano/engine.h"
#include "volcano/inspect.h"
#include "volcano/profile.h"
#include "workload/traffic.h"
#include "workload/workload.h"

namespace {

// --execute shrinks the generated base classes to executable sizes (the
// default workload cardinalities, up to 10k rows, make worst-case joins
// take minutes; these match the integration tests' enumerable scale).
constexpr int kExecMinCard = 16;
constexpr int kExecMaxCard = 256;

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: prairie_opt [flags]\n"
      "\n"
      "workload selection:\n"
      "  --spec relational|oodb|FILE  rule specification (default oodb)\n"
      "  --query 1..8                 paper query to generate (default 1)\n"
      "  --joins N                    join count for join queries "
      "(default 2)\n"
      "  --seed S                     catalog/query seed (default 1)\n"
      "\n"
      "search control:\n"
      "  --expand-only                stop after logical expansion; report\n"
      "                               the search-space size only\n"
      "  --no-prune                   disable branch-and-bound pruning\n"
      "  --shape chain|star|clique    join-graph shape (default chain)\n"
      "  --search-budget-ms MS        anytime budget: stop expanding after\n"
      "                               MS milliseconds, return the best plan\n"
      "                               over the truncated space (default\n"
      "                               unlimited)\n"
      "  --max-groups N               anytime budget on allocated memo\n"
      "                               groups (default unlimited)\n"
      "\n"
      "batch mode (enabled by either flag):\n"
      "  --jobs N                     worker threads (0 = hardware "
      "default)\n"
      "  --batch K                    optimize K instances, seeds S..S+K-1\n"
      "\n"
      "plan cache:\n"
      "  --plan-cache[=ENTRIES]       reuse optimized plans by fingerprint\n"
      "                               (default 4096 entries); reports\n"
      "                               hit/miss/insert/evict/stale counts\n"
      "  --param-cache[=ENTRIES]      plan cache keyed on constant-stripped\n"
      "                               skeletons: queries differing only in\n"
      "                               literals share an entry; hits rebind\n"
      "                               the probe's constants (implies\n"
      "                               --plan-cache)\n"
      "  --traffic N                  optimize N requests of Zipf-skewed\n"
      "                               parameter-varying traffic (Q1..Q8\n"
      "                               skeleton pool, per-tenant streams);\n"
      "                               honors --jobs; reports hit rate and\n"
      "                               latency percentiles\n"
      "  --repeat R                   optimize the workload R times (cold\n"
      "                               first round, warm after)\n"
      "\n"
      "observability:\n"
      "  --trace FILE                 write Chrome trace_event JSON\n"
      "  --profile-rules              print per-rule attempt/latency table\n"
      "  --explain                    print winning-plan provenance\n"
      "  --metrics FILE               write the metrics registry after the\n"
      "                               run (Prometheus text; JSON when FILE\n"
      "                               ends in .json)\n"
      "  --dump-memo FILE.{dot,json}  dump the finished memo as Graphviz\n"
      "                               DOT or JSON (single-query mode)\n"
      "\n"
      "diagnostics:\n"
      "  --timeseries FILE[,MS]       windowed time-series metrics: one\n"
      "                               JSON-lines interval-delta record per\n"
      "                               MS-millisecond window (default 250;\n"
      "                               0 = every chunk); traffic/batch modes\n"
      "  --slow-ms MS                 flag queries slower than MS ms\n"
      "  --slow-p99 K                 flag queries slower than K x the\n"
      "                               running p99 latency (adaptive)\n"
      "  --qerror-limit Q             flag executed queries whose max\n"
      "                               operator Q-error exceeds Q\n"
      "  --slow-log FILE              JSON-lines record per flagged query\n"
      "  --diag-dir DIR               write a diagnostic bundle (manifest,\n"
      "                               trace slice, metrics delta,\n"
      "                               provenance) per trigger under DIR\n"
      "  --diag-detail full|coarse    flight-recorder granularity\n"
      "                               (default coarse)\n"
      "\n"
      "execution (single-query mode):\n"
      "  --execute                    run the winning plan on an in-memory\n"
      "                               database generated from the catalog\n"
      "                               (classes capped at %d rows); exits 2\n"
      "                               if an algorithm has no registered\n"
      "                               executor\n"
      "  --analyze[=FILE.json]        EXPLAIN ANALYZE (implies --execute):\n"
      "                               annotate each operator with estimated\n"
      "                               rows, actual rows, elapsed ns and\n"
      "                               Q-error; optionally export the stats\n"
      "                               tree as JSON\n"
      "\n"
      "  --version                    print the compiler and exit\n"
      "  --help                       show this help and exit\n",
      kExecMaxCard);
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

/// Writes the process-wide metrics registry to `path`; format picked by
/// extension (.json -> JSON snapshot, anything else -> Prometheus text).
int WriteMetricsFile(const std::string& path) {
  prairie::common::MetricsRegistry* reg =
      prairie::common::MetricsRegistry::Global();
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "prairie_opt: cannot open metrics file '%s'\n",
                 path.c_str());
    return 1;
  }
  out << (json ? reg->JsonSnapshot() : reg->PrometheusText());
  out.close();
  if (!out) {
    std::fprintf(stderr, "prairie_opt: error writing metrics file '%s'\n",
                 path.c_str());
    return 1;
  }
  std::printf("metrics: %zu series -> %s\n", reg->NumSeries(), path.c_str());
  return 0;
}

/// Joins argv into one provenance string for bundle manifests.
std::string RenderFlags(int argc, char** argv) {
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) out += " ";
    out += argv[i];
  }
  return out;
}

/// Wrap-around loss is silent at the ring; every trace export surfaces it.
void WarnDropped(size_t dropped, const char* what) {
  if (dropped > 0) {
    std::fprintf(stderr,
                 "prairie_opt: warning: %zu trace events lost to %s "
                 "ring wrap-around (exported stream is incomplete)\n",
                 dropped, what);
  }
}

/// Max per-operator Q-error over an ExecStats tree (0 = no estimates).
double MaxQError(const prairie::exec::OpStats* node) {
  if (node == nullptr) return 0;
  double q = node->QError();
  for (const prairie::exec::OpStats* c : node->children) {
    q = std::max(q, MaxQError(c));
  }
  return q;
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

/// Splits "FILE[,MS]" into path + scrape interval (default 250 ms). The
/// interval suffix must be a whole unsigned number — otherwise the comma
/// is part of the path.
void ParseTimeSeriesSpec(const std::string& spec, std::string* path,
                         uint64_t* interval_ms) {
  *path = spec;
  *interval_ms = 250;
  const size_t comma = spec.rfind(',');
  if (comma == std::string::npos) return;
  if (ParseNumber(spec.c_str() + comma + 1, interval_ms, 0)) {
    *path = spec.substr(0, comma);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec = "oodb";
  int query = 1;
  int joins = 2;
  uint64_t seed = 1;
  bool expand_only = false;
  int jobs = 0;
  int batch = 0;
  std::string trace_path;
  std::string metrics_path;
  std::string dump_memo_path;
  bool profile_rules = false;
  bool explain = false;
  bool execute = false;
  bool analyze = false;
  std::string analyze_path;
  bool plan_cache = false;
  size_t plan_cache_entries = 4096;
  bool param_cache = false;
  int traffic = 0;
  int repeat = 1;
  std::string shape = "chain";
  std::string timeseries_spec;
  double slow_ms = 0;
  double slow_p99 = 0;
  double qerror_limit = 0;
  std::string slow_log_path;
  std::string diag_dir;
  std::string diag_detail = "coarse";
  prairie::volcano::OptimizerOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--spec") {
      const char* v = next();
      if (v == nullptr) return Usage();
      spec = v;
    } else if (arg == "--query") {
      if (!ParseNumber(next(), &query, 1, 8)) return Usage();
    } else if (arg == "--joins") {
      if (!ParseNumber(next(), &joins, 1)) return Usage();
    } else if (arg == "--seed") {
      if (!ParseNumber(next(), &seed, 0)) return Usage();
    } else if (arg == "--expand-only") {
      expand_only = true;
    } else if (arg == "--no-prune") {
      options.prune = false;
    } else if (arg == "--shape") {
      const char* v = next();
      if (v == nullptr) return Usage();
      shape = v;
    } else if (arg.rfind("--shape=", 0) == 0) {
      shape = arg.substr(std::strlen("--shape="));
    } else if (arg == "--search-budget-ms") {
      if (!ParseNumber(next(), &options.search_budget_ms, 0)) return Usage();
    } else if (arg.rfind("--search-budget-ms=", 0) == 0) {
      if (!ParseNumber(arg.c_str() + std::strlen("--search-budget-ms="),
                       &options.search_budget_ms, 0)) {
        return Usage();
      }
    } else if (arg == "--max-groups") {
      if (!ParseNumber(next(), &options.group_budget, 0)) return Usage();
    } else if (arg.rfind("--max-groups=", 0) == 0) {
      if (!ParseNumber(arg.c_str() + std::strlen("--max-groups="),
                       &options.group_budget, 0)) {
        return Usage();
      }
    } else if (arg == "--jobs") {
      if (!ParseNumber(next(), &jobs, 0)) return Usage();
    } else if (arg == "--batch") {
      if (!ParseNumber(next(), &batch, 0)) return Usage();
    } else if (arg == "--plan-cache") {
      plan_cache = true;
    } else if (arg.rfind("--plan-cache=", 0) == 0) {
      plan_cache = true;
      if (!ParseNumber(arg.c_str() + std::strlen("--plan-cache="),
                       &plan_cache_entries, 1)) {
        return Usage();
      }
    } else if (arg == "--param-cache") {
      plan_cache = true;
      param_cache = true;
    } else if (arg.rfind("--param-cache=", 0) == 0) {
      plan_cache = true;
      param_cache = true;
      if (!ParseNumber(arg.c_str() + std::strlen("--param-cache="),
                       &plan_cache_entries, 1)) {
        return Usage();
      }
    } else if (arg == "--traffic") {
      if (!ParseNumber(next(), &traffic, 0)) return Usage();
    } else if (arg.rfind("--traffic=", 0) == 0) {
      if (!ParseNumber(arg.c_str() + std::strlen("--traffic="), &traffic, 0)) {
        return Usage();
      }
    } else if (arg == "--repeat") {
      if (!ParseNumber(next(), &repeat, 1)) return Usage();
    } else if (arg.rfind("--repeat=", 0) == 0) {
      if (!ParseNumber(arg.c_str() + std::strlen("--repeat="), &repeat, 1)) {
        return Usage();
      }
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return Usage();
      trace_path = v;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
      if (trace_path.empty()) return Usage();
    } else if (arg == "--metrics") {
      const char* v = next();
      if (v == nullptr) return Usage();
      metrics_path = v;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics="));
      if (metrics_path.empty()) return Usage();
    } else if (arg == "--dump-memo") {
      const char* v = next();
      if (v == nullptr) return Usage();
      dump_memo_path = v;
    } else if (arg.rfind("--dump-memo=", 0) == 0) {
      dump_memo_path = arg.substr(std::strlen("--dump-memo="));
      if (dump_memo_path.empty()) return Usage();
    } else if (arg == "--profile-rules") {
      profile_rules = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--execute") {
      execute = true;
    } else if (arg == "--analyze") {
      execute = true;
      analyze = true;
    } else if (arg.rfind("--analyze=", 0) == 0) {
      execute = true;
      analyze = true;
      analyze_path = arg.substr(std::strlen("--analyze="));
      if (analyze_path.empty()) return Usage();
    } else if (arg == "--timeseries") {
      const char* v = next();
      if (v == nullptr) return Usage();
      timeseries_spec = v;
    } else if (arg.rfind("--timeseries=", 0) == 0) {
      timeseries_spec = arg.substr(std::strlen("--timeseries="));
      if (timeseries_spec.empty()) return Usage();
    } else if (arg == "--slow-ms") {
      if (!ParseNumber(next(), &slow_ms, 0)) return Usage();
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      if (!ParseNumber(arg.c_str() + std::strlen("--slow-ms="), &slow_ms, 0)) {
        return Usage();
      }
    } else if (arg == "--slow-p99") {
      if (!ParseNumber(next(), &slow_p99, 0)) return Usage();
    } else if (arg.rfind("--slow-p99=", 0) == 0) {
      if (!ParseNumber(arg.c_str() + std::strlen("--slow-p99="), &slow_p99,
                       0)) {
        return Usage();
      }
    } else if (arg == "--qerror-limit") {
      if (!ParseNumber(next(), &qerror_limit, 0)) return Usage();
    } else if (arg.rfind("--qerror-limit=", 0) == 0) {
      if (!ParseNumber(arg.c_str() + std::strlen("--qerror-limit="),
                       &qerror_limit, 0)) {
        return Usage();
      }
    } else if (arg == "--slow-log") {
      const char* v = next();
      if (v == nullptr) return Usage();
      slow_log_path = v;
    } else if (arg.rfind("--slow-log=", 0) == 0) {
      slow_log_path = arg.substr(std::strlen("--slow-log="));
      if (slow_log_path.empty()) return Usage();
    } else if (arg == "--diag-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      diag_dir = v;
    } else if (arg.rfind("--diag-dir=", 0) == 0) {
      diag_dir = arg.substr(std::strlen("--diag-dir="));
      if (diag_dir.empty()) return Usage();
    } else if (arg == "--diag-detail") {
      const char* v = next();
      if (v == nullptr) return Usage();
      diag_detail = v;
    } else if (arg.rfind("--diag-detail=", 0) == 0) {
      diag_detail = arg.substr(std::strlen("--diag-detail="));
    } else if (arg == "--version") {
      std::printf("prairie_opt (%s)\n",
                  prairie::common::CompilerText().c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "prairie_opt: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (diag_detail != "full" && diag_detail != "coarse") return Usage();
  if (execute && (traffic > 0 || jobs != 0 || batch > 1 || expand_only)) {
    std::fprintf(stderr,
                 "prairie_opt: --execute/--analyze apply to single-query "
                 "full-optimization mode; ignoring\n");
    execute = false;
    analyze = false;
  }
  prairie::workload::JoinShape join_shape =
      prairie::workload::JoinShape::kChain;
  if (shape == "star") {
    join_shape = prairie::workload::JoinShape::kStar;
  } else if (shape == "clique") {
    join_shape = prairie::workload::JoinShape::kClique;
  } else if (shape != "chain") {
    return Usage();
  }

  std::string text;
  if (spec == "relational") {
    text = prairie::opt::RelationalSpecText();
    if (query > 2) {
      std::fprintf(stderr,
                   "prairie_opt: the relational algebra supports only "
                   "Q1/Q2 (E1)\n");
      return 1;
    }
  } else if (spec == "oodb") {
    text = prairie::opt::OodbSpecText();
  } else {
    std::ifstream in(spec);
    if (!in) {
      std::fprintf(stderr, "prairie_opt: cannot read '%s'\n", spec.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  auto rules = prairie::dsl::ParseRuleSet(text, prairie::opt::StandardHelpers());
  if (!rules.ok()) {
    std::fprintf(stderr, "prairie_opt: %s\n",
                 rules.status().ToString().c_str());
    return 1;
  }
  auto volcano_rules = prairie::p2v::Translate(*rules, nullptr);
  if (!volcano_rules.ok()) {
    std::fprintf(stderr, "prairie_opt: %s\n",
                 volcano_rules.status().ToString().c_str());
    return 1;
  }

  options.param_cache = param_cache;

  // The metrics bundle registers every series (per-rule histograms need the
  // rule names) once, up front; all modes then share it — batch workers
  // flush into the same sharded counters without contention. Traffic mode
  // always wants it: the latency percentiles come out of its histograms.
  const bool diag_requested = slow_ms > 0 || slow_p99 > 0 ||
                              qerror_limit > 0 || !slow_log_path.empty() ||
                              !diag_dir.empty();
  prairie::volcano::VolcanoMetrics metrics_bundle;
  if (!metrics_path.empty() || traffic > 0 || diag_requested) {
    metrics_bundle = prairie::volcano::VolcanoMetrics::ForRuleSet(
        prairie::common::MetricsRegistry::Global(), **volcano_rules);
    options.metrics = &metrics_bundle;
  }

  // Diagnostics (DESIGN.md §7.4): one service shared by whichever mode
  // runs. Check() is evaluated after every query; the slow log and bundle
  // directory are only touched on a firing trigger.
  const prairie::common::TraceDetail flight_detail =
      diag_detail == "full" ? prairie::common::TraceDetail::kFull
                            : prairie::common::TraceDetail::kCoarse;
  std::ofstream slow_log_stream;
  std::unique_ptr<prairie::volcano::DiagService> diag;
  if (diag_requested) {
    if (!slow_log_path.empty()) {
      slow_log_stream.open(slow_log_path, std::ios::out | std::ios::trunc);
      if (!slow_log_stream) {
        std::fprintf(stderr, "prairie_opt: cannot open slow log '%s'\n",
                     slow_log_path.c_str());
        return 1;
      }
    }
    prairie::volcano::DiagOptions dopt;
    dopt.slow_ms = slow_ms;
    dopt.adaptive_k = slow_p99;
    dopt.latency_hist = metrics_bundle.query_latency_ns;
    dopt.qerror_limit = qerror_limit;
    dopt.cache_storm_threshold = plan_cache ? 64 : 0;
    dopt.diag_dir = diag_dir;
    dopt.slow_log = slow_log_stream.is_open() ? &slow_log_stream : nullptr;
    dopt.registry = prairie::common::MetricsRegistry::Global();
    dopt.rules = volcano_rules->get();
    dopt.flags = RenderFlags(argc, argv);
    dopt.seed = seed;
    diag = std::make_unique<prairie::volcano::DiagService>(dopt);
  }

  // Windowed time-series metrics: armed here (after the bundle registered
  // its series) so the baseline sample covers them; scraped between work
  // chunks by the traffic/batch loops below.
  std::ofstream ts_stream;
  std::unique_ptr<prairie::common::TimeSeriesWriter> timeseries;
  std::string ts_path;
  if (!timeseries_spec.empty()) {
    uint64_t ts_interval_ms = 250;
    ParseTimeSeriesSpec(timeseries_spec, &ts_path, &ts_interval_ms);
    ts_stream.open(ts_path, std::ios::out | std::ios::trunc);
    if (!ts_stream) {
      std::fprintf(stderr, "prairie_opt: cannot open timeseries file '%s'\n",
                   ts_path.c_str());
      return 1;
    }
    prairie::common::TimeSeriesOptions tso;
    tso.interval_ms = ts_interval_ms;
    timeseries = std::make_unique<prairie::common::TimeSeriesWriter>(
        prairie::common::MetricsRegistry::Global(), &ts_stream, tso);
  }

  if (traffic > 0) {
    // Traffic mode: N parameter-varying requests over a Zipf-skewed
    // skeleton pool, optimized through one BatchOptimizer (serial unless
    // --jobs). The interesting outputs are the cache counters and the
    // optimize-latency percentiles, not the individual plans.
    const auto& algebra = *(*volcano_rules)->algebra;
    prairie::workload::TrafficOptions topt;
    topt.num_joins = joins;
    topt.seed = seed;
    auto gen = prairie::workload::TrafficGenerator::Make(algebra, topt);
    if (!gen.ok()) {
      std::fprintf(stderr, "prairie_opt: %s\n",
                   gen.status().ToString().c_str());
      return 1;
    }
    std::vector<prairie::workload::TrafficRequest> requests;
    requests.reserve(static_cast<size_t>(traffic));
    for (int i = 0; i < traffic; ++i) requests.push_back(gen->Next());
    std::vector<prairie::volcano::BatchQuery> queries;
    queries.reserve(requests.size());
    for (const auto& r : requests) {
      queries.push_back(prairie::volcano::BatchQuery{r.query.get(), r.catalog});
    }
    prairie::volcano::BatchOptions batch_options;
    batch_options.jobs = jobs == 0 ? 1 : jobs;
    batch_options.optimizer = options;
    if (plan_cache) batch_options.plan_cache_entries = plan_cache_entries;
    if (diag != nullptr) {
      // Arm the per-worker flight recorders; under traffic they run at
      // the (coarse by default) diagnostics detail.
      batch_options.diag = diag.get();
      batch_options.optimizer.trace_detail = flight_detail;
    }
    prairie::volcano::BatchOptimizer batcher(volcano_rules->get(),
                                             batch_options);
    // With --timeseries the request stream is fed in ~8 chunks so the
    // scraper observes the run in flight; without it, one call.
    const size_t chunk =
        timeseries != nullptr
            ? std::max<size_t>(1, (queries.size() + 7) / 8)
            : queries.size();
    std::vector<prairie::volcano::BatchResult> results;
    results.reserve(queries.size());
    prairie::common::Stopwatch sw;
    for (size_t off = 0; off < queries.size(); off += chunk) {
      const size_t end = std::min(off + chunk, queries.size());
      std::vector<prairie::volcano::BatchQuery> part(
          queries.begin() + static_cast<ptrdiff_t>(off),
          queries.begin() + static_cast<ptrdiff_t>(end));
      std::vector<prairie::volcano::BatchResult> part_results =
          batcher.OptimizeAll(part);
      results.insert(results.end(),
                     std::make_move_iterator(part_results.begin()),
                     std::make_move_iterator(part_results.end()));
      if (timeseries != nullptr) timeseries->MaybeScrape();
    }
    const double wall = sw.ElapsedSeconds();
    if (timeseries != nullptr) timeseries->MaybeScrape(/*force=*/true);
    int failures = 0;
    size_t cached = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      if (!r.plan.ok()) {
        std::printf("request %zu (skeleton %d): ERROR %s\n", i,
                    requests[i].skeleton, r.plan.status().ToString().c_str());
        ++failures;
        continue;
      }
      if (r.stats.plan_from_cache) ++cached;
    }
    std::printf(
        "traffic: %zu requests over %d skeletons on %d worker(s) in %.2f ms "
        "(%.1f queries/s)\n",
        results.size(), gen->num_skeletons(), batcher.jobs(), wall * 1e3,
        static_cast<double>(results.size()) / wall);
    std::printf("         %zu served from cache (%.1f%% hit rate)\n", cached,
                results.empty()
                    ? 0.0
                    : 100.0 * static_cast<double>(cached) /
                          static_cast<double>(results.size()));
    const prairie::common::HistogramSnapshot lat =
        metrics_bundle.query_latency_ns->Snapshot();
    std::printf("latency: p50 %.1f us, p90 %.1f us, p99 %.1f us\n",
                lat.Percentile(50) / 1e3, lat.Percentile(90) / 1e3,
                lat.Percentile(99) / 1e3);
    if (const prairie::volcano::PlanCache* cache = batcher.plan_cache()) {
      const prairie::volcano::PlanCacheStats cs = cache->stats();
      std::printf(
          "plan cache: %llu hits (%llu rebound), %llu misses, %llu inserts "
          "(%llu skeleton, %llu unrebindable), %llu guard rejects,\n"
          "            %llu evictions, %llu stale drops (%zu live entries, "
          "%zu bytes)\n",
          static_cast<unsigned long long>(cs.hits),
          static_cast<unsigned long long>(cs.param_hits),
          static_cast<unsigned long long>(cs.misses),
          static_cast<unsigned long long>(cs.inserts),
          static_cast<unsigned long long>(cs.param_inserts),
          static_cast<unsigned long long>(cs.unrebindable_inserts),
          static_cast<unsigned long long>(cs.sensitivity_rejects),
          static_cast<unsigned long long>(cs.evictions),
          static_cast<unsigned long long>(cs.stale_drops), cache->size(),
          cache->bytes());
    }
    if (timeseries != nullptr) {
      std::printf("timeseries: %llu interval records -> %s\n",
                  static_cast<unsigned long long>(timeseries->seq()),
                  ts_path.c_str());
    }
    if (diag != nullptr) {
      std::printf("diag: %zu queries flagged, %zu bundles written%s%s\n",
                  diag->reports(), diag->bundles_written(),
                  diag_dir.empty() ? "" : " -> ", diag_dir.c_str());
    }
    if (!metrics_path.empty() && WriteMetricsFile(metrics_path) != 0) {
      return 1;
    }
    return failures == 0 ? 0 : 1;
  }

  if (jobs != 0 || batch > 1) {
    // Batch mode: K instances of the query under consecutive seeds,
    // optimized concurrently on the worker pool.
    const int count = batch > 1 ? batch : 8;
    const auto& algebra = *(*volcano_rules)->algebra;
    std::vector<prairie::workload::Workload> workloads;
    workloads.reserve(static_cast<size_t>(count));
    for (int k = 0; k < count; ++k) {
      prairie::workload::QuerySpec qspec = prairie::workload::PaperQuery(
          query, joins, seed + static_cast<uint64_t>(k));
      qspec.shape = join_shape;
      auto w = prairie::workload::MakeWorkload(algebra, qspec);
      if (!w.ok()) {
        std::fprintf(stderr, "prairie_opt: seed %llu: %s\n",
                     static_cast<unsigned long long>(qspec.seed),
                     w.status().ToString().c_str());
        return 1;
      }
      workloads.push_back(std::move(*w));
    }
    std::vector<prairie::volcano::BatchQuery> queries;
    queries.reserve(workloads.size());
    for (const auto& w : workloads) {
      queries.push_back(prairie::volcano::BatchQuery{w.query.get(), &w.catalog});
    }
    prairie::volcano::BatchOptions batch_options;
    batch_options.jobs = jobs;
    batch_options.optimizer = options;
    if (plan_cache) batch_options.plan_cache_entries = plan_cache_entries;
    if (!trace_path.empty() || profile_rules) {
      batch_options.trace_capacity =
          prairie::common::RingBufferSink::kDefaultCapacity;
    }
    if (diag != nullptr) {
      batch_options.diag = diag.get();
      // A full batch trace (--trace/--profile-rules) overrides the coarse
      // flight-recorder detail: one sink serves both consumers.
      if (batch_options.trace_capacity == 0) {
        batch_options.optimizer.trace_detail = flight_detail;
      }
    }
    prairie::volcano::BatchOptimizer batcher(volcano_rules->get(),
                                             batch_options);
    // With --repeat the same batch runs R times; round 1 is cold, later
    // rounds are served (mostly) from the warm cache.
    std::vector<prairie::volcano::BatchResult> results;
    prairie::common::Stopwatch sw;
    double wall = 0;
    for (int round = 0; round < repeat; ++round) {
      prairie::common::Stopwatch round_sw;
      results = batcher.OptimizeAll(queries);
      const double round_wall = round_sw.ElapsedSeconds();
      if (repeat > 1) {
        std::printf("round %d/%d: %.2f ms (%.1f queries/s)\n", round + 1,
                    repeat, round_wall * 1e3,
                    static_cast<double>(results.size()) / round_wall);
      }
      if (timeseries != nullptr) timeseries->MaybeScrape();
    }
    wall = sw.ElapsedSeconds();
    if (timeseries != nullptr) timeseries->MaybeScrape(/*force=*/true);
    int failures = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      if (!r.plan.ok()) {
        std::printf("Q%d seed %llu: ERROR %s\n", query,
                    static_cast<unsigned long long>(seed + i),
                    r.plan.status().ToString().c_str());
        ++failures;
        continue;
      }
      std::printf("Q%d seed %llu: cost %.2f  %s\n", query,
                  static_cast<unsigned long long>(seed + i), r.plan->cost,
                  r.plan->root->ToString(algebra).c_str());
    }
    const auto* store = batcher.shared_store();
    const size_t total_queries = results.size() * static_cast<size_t>(repeat);
    std::printf(
        "\nbatch: %zu queries on %d worker(s) in %.2f ms (%.1f queries/s)\n",
        total_queries, batcher.jobs(), wall * 1e3,
        static_cast<double>(total_queries) / wall);
    std::printf("shared store: %zu descriptors, %.1f%% intern hit rate\n",
                store->size(), 100.0 * store->HitRate());
    if (const prairie::volcano::PlanCache* cache = batcher.plan_cache()) {
      const prairie::volcano::PlanCacheStats cs = cache->stats();
      std::printf(
          "plan cache: %llu hits, %llu misses, %llu inserts, %llu evictions, "
          "%llu stale drops (%zu live entries, %zu bytes)\n",
          static_cast<unsigned long long>(cs.hits),
          static_cast<unsigned long long>(cs.misses),
          static_cast<unsigned long long>(cs.inserts),
          static_cast<unsigned long long>(cs.evictions),
          static_cast<unsigned long long>(cs.stale_drops), cache->size(),
          cache->bytes());
      if (param_cache) {
        std::printf(
            "param cache: %llu rebound hits, %llu skeleton inserts, %llu "
            "unrebindable inserts, %llu guard rejects\n",
            static_cast<unsigned long long>(cs.param_hits),
            static_cast<unsigned long long>(cs.param_inserts),
            static_cast<unsigned long long>(cs.unrebindable_inserts),
            static_cast<unsigned long long>(cs.sensitivity_rejects));
      }
    }
    if (profile_rules) {
      prairie::volcano::RuleProfile profile = prairie::volcano::BuildRuleProfile(
          batcher.trace_events(), **volcano_rules, batcher.trace_dropped());
      std::printf("\nrule profile (all workers):\n%s",
                  profile.ToTable().c_str());
    }
    if (!trace_path.empty()) {
      WarnDropped(batcher.trace_dropped(), "per-worker");
      auto st = prairie::volcano::WriteChromeTrace(
          trace_path, batcher.trace_events(), **volcano_rules,
          batcher.trace_dropped());
      if (!st.ok()) {
        std::fprintf(stderr, "prairie_opt: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("trace: %zu events -> %s\n", batcher.trace_events().size(),
                  trace_path.c_str());
    }
    if (explain) {
      std::fprintf(stderr,
                   "prairie_opt: --explain applies to single-query mode "
                   "(batch optimizers are discarded per query)\n");
    }
    if (!dump_memo_path.empty()) {
      std::fprintf(stderr,
                   "prairie_opt: --dump-memo applies to single-query mode "
                   "(batch memos are discarded per query)\n");
    }
    if (timeseries != nullptr) {
      std::printf("timeseries: %llu interval records -> %s\n",
                  static_cast<unsigned long long>(timeseries->seq()),
                  ts_path.c_str());
    }
    if (diag != nullptr) {
      std::printf("diag: %zu queries flagged, %zu bundles written%s%s\n",
                  diag->reports(), diag->bundles_written(),
                  diag_dir.empty() ? "" : " -> ", diag_dir.c_str());
    }
    if (!metrics_path.empty() && WriteMetricsFile(metrics_path) != 0) {
      return 1;
    }
    return failures == 0 ? 0 : 1;
  }

  prairie::workload::QuerySpec qspec =
      prairie::workload::PaperQuery(query, joins, seed);
  qspec.shape = join_shape;
  if (execute) {
    qspec.min_card = kExecMinCard;
    qspec.max_card = kExecMaxCard;
  }
  auto w = prairie::workload::MakeWorkload(*(*volcano_rules)->algebra, qspec);
  if (!w.ok()) {
    std::fprintf(stderr, "prairie_opt: %s\n", w.status().ToString().c_str());
    return 1;
  }

  const auto& algebra = *(*volcano_rules)->algebra;
  std::printf("catalog:\n%s\n\n", w->catalog.ToString().c_str());
  std::printf("query Q%d (%d joins, seed %llu):\n  %s\n\n", query, joins,
              static_cast<unsigned long long>(seed),
              w->query->ToString(algebra).c_str());

  std::unique_ptr<prairie::common::RingBufferSink> sink;
  if (!trace_path.empty() || profile_rules || diag != nullptr) {
    sink = std::make_unique<prairie::common::RingBufferSink>();
    options.trace = sink.get();
    // When only the diagnostics layer wants the sink it runs as a coarse
    // flight recorder; an explicit --trace/--profile-rules keeps the full
    // stream.
    if (trace_path.empty() && !profile_rules) {
      options.trace_detail = flight_detail;
    }
  }
  // The cache outlives every per-round optimizer; its keys intern through
  // one store that all rounds share.
  std::unique_ptr<prairie::algebra::DescriptorStore> cache_store;
  std::unique_ptr<prairie::volcano::PlanCache> cache;
  if (plan_cache) {
    cache_store = std::make_unique<prairie::algebra::DescriptorStore>(
        &(*volcano_rules)->algebra->properties());
    prairie::volcano::PlanCacheOptions copt;
    copt.max_entries = plan_cache_entries;
    cache = std::make_unique<prairie::volcano::PlanCache>(cache_store.get(),
                                                          copt);
    options.plan_cache = cache.get();
  }
  // --repeat: rounds 1..R-1 run here (round 1 cold; with --plan-cache the
  // rest warm); the final round below prints the plan and stats.
  for (int round = 1; !expand_only && round < repeat; ++round) {
    prairie::common::Stopwatch round_sw;
    prairie::volcano::Optimizer warm(volcano_rules->get(), &w->catalog,
                                     options, cache_store.get());
    auto p = warm.Optimize(*w->query);
    if (!p.ok()) {
      std::fprintf(stderr, "prairie_opt: %s\n", p.status().ToString().c_str());
      return 1;
    }
    std::printf("round %d/%d: %.3f ms%s\n", round, repeat,
                round_sw.ElapsedSeconds() * 1e3,
                warm.stats().plan_from_cache ? " (cached)" : "");
  }
  prairie::volcano::Optimizer optimizer(volcano_rules->get(), &w->catalog,
                                        options, cache_store.get());
  auto emit_trace_outputs = [&]() -> int {
    if (sink == nullptr) return 0;
    const std::vector<prairie::common::TraceEvent> events = sink->Snapshot();
    if (profile_rules) {
      prairie::volcano::RuleProfile profile = prairie::volcano::BuildRuleProfile(
          events, **volcano_rules, sink->dropped());
      std::printf("\nrule profile:\n%s", profile.ToTable().c_str());
    }
    if (!trace_path.empty()) {
      WarnDropped(sink->dropped(), "trace");
      auto st = prairie::volcano::WriteChromeTrace(
          trace_path, events, **volcano_rules, sink->dropped());
      if (!st.ok()) {
        std::fprintf(stderr, "prairie_opt: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("trace: %zu events -> %s\n", events.size(),
                  trace_path.c_str());
    }
    return 0;
  };
  // Post-run observability artifacts: the memo dump (needs the finished
  // memo, still owned by the optimizer) and the metrics file.
  auto emit_dumps = [&]() -> int {
    if (!dump_memo_path.empty()) {
      const prairie::volcano::Memo& memo = optimizer.memo();
      auto st = prairie::volcano::WriteMemoDump(dump_memo_path, memo,
                                                **volcano_rules);
      if (!st.ok()) {
        std::fprintf(stderr, "prairie_opt: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("memo: %zu groups, %zu expressions -> %s\n",
                  memo.NumGroups(), memo.NumExprs(), dump_memo_path.c_str());
    }
    if (!metrics_path.empty() && WriteMetricsFile(metrics_path) != 0) {
      return 1;
    }
    return 0;
  };
  if (expand_only) {
    auto groups = optimizer.ExpandOnly(*w->query);
    if (!groups.ok()) {
      std::fprintf(stderr, "prairie_opt: %s\n",
                   groups.status().ToString().c_str());
      return 1;
    }
    std::printf("logical search space: %zu equivalence classes, %zu "
                "expressions\n",
                *groups, optimizer.stats().mexprs);
    if (int rc = emit_trace_outputs(); rc != 0) return rc;
    return emit_dumps();
  }
  prairie::common::Stopwatch opt_sw;
  auto plan = optimizer.Optimize(*w->query);
  const double optimize_ms = opt_sw.ElapsedSeconds() * 1e3;
  if (!plan.ok()) {
    std::fprintf(stderr, "prairie_opt: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("plan (cost %.2f):\n%s\n", plan->cost,
              plan->root->TreeString(algebra).c_str());
  const auto& stats = optimizer.stats();
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
  if (cache != nullptr) {
    const prairie::volcano::PlanCacheStats cs = cache->stats();
    std::printf(
        "plan cache: %llu hits, %llu misses, %llu inserts, %llu evictions, "
        "%llu stale drops (%zu live entries, %zu bytes)\n",
        static_cast<unsigned long long>(cs.hits),
        static_cast<unsigned long long>(cs.misses),
        static_cast<unsigned long long>(cs.inserts),
        static_cast<unsigned long long>(cs.evictions),
        static_cast<unsigned long long>(cs.stale_drops), cache->size(),
        cache->bytes());
    if (param_cache) {
      std::printf(
          "param cache: %llu rebound hits, %llu skeleton inserts, %llu "
          "unrebindable inserts, %llu guard rejects\n",
          static_cast<unsigned long long>(cs.param_hits),
          static_cast<unsigned long long>(cs.param_inserts),
          static_cast<unsigned long long>(cs.unrebindable_inserts),
          static_cast<unsigned long long>(cs.sensitivity_rejects));
    }
  }
  if (explain) {
    std::printf("\nprovenance (winner -> rule -> source expression):\n%s",
                optimizer.ExplainWinner().c_str());
  }
  prairie::exec::ExecStats exec_stats;
  std::string feedback_json;
  bool executed = false;
  if (execute) {
    auto db = prairie::workload::MakeDatabase(w->catalog, seed);
    if (!db.ok()) {
      std::fprintf(stderr, "prairie_opt: %s\n",
                   db.status().ToString().c_str());
      return 1;
    }
    prairie::exec::ExecutorRegistry exec_registry;
    if (auto st = prairie::opt::RegisterStandardExecutors(&exec_registry);
        !st.ok()) {
      std::fprintf(stderr, "prairie_opt: %s\n", st.ToString().c_str());
      return 1;
    }
    prairie::algebra::ExprPtr plan_expr = plan->root->ToExpr(algebra);
    auto iter = exec_registry.Build(*plan_expr, algebra, *db, &exec_stats);
    if (!iter.ok()) {
      std::fprintf(stderr, "prairie_opt: %s\n",
                   iter.status().ToString().c_str());
      // A plan whose algorithm has no executor is a usage-level error (the
      // spec defines algorithms the binary cannot run), not a crash.
      return iter.status().code() == prairie::common::StatusCode::kNotFound
                 ? 2
                 : 1;
    }
    prairie::common::Stopwatch exec_sw;
    auto rows = prairie::exec::CollectAll(iter->get());
    if (!rows.ok()) {
      std::fprintf(stderr, "prairie_opt: %s\n",
                   rows.status().ToString().c_str());
      return 1;
    }
    std::printf("\nexecuted: %zu result rows in %.3f ms\n", rows->size(),
                exec_sw.ElapsedSeconds() * 1e3);
    if (analyze) {
      std::printf("\nexplain analyze (est vs actual rows, q = Q-error):\n%s",
                  exec_stats.ToText().c_str());
      if (!analyze_path.empty()) {
        std::ofstream out(analyze_path, std::ios::out | std::ios::trunc);
        if (out) out << exec_stats.ToJson() << "\n";
        if (!out) {
          std::fprintf(stderr,
                       "prairie_opt: cannot write analyze file '%s'\n",
                       analyze_path.c_str());
          return 1;
        }
        out.close();
        std::printf("analyze: stats -> %s\n", analyze_path.c_str());
      }
    }
    // (sub-plan fingerprint) -> est vs actual rows, for diagnostic bundles.
    prairie::algebra::DescriptorStore fp_store(&algebra.properties());
    auto feedback =
        prairie::exec::FeedbackJson(*plan_expr, exec_stats, &fp_store);
    if (!feedback.ok()) {
      std::fprintf(stderr, "prairie_opt: %s\n",
                   feedback.status().ToString().c_str());
      return 1;
    }
    feedback_json = std::move(*feedback);
    std::printf("cardinality feedback: %zu sub-plan fingerprints recorded\n",
                exec_stats.num_nodes());
    if (!metrics_path.empty()) {
      prairie::exec::ExecMetrics exec_metrics =
          prairie::exec::ExecMetrics::ForRegistry(
              prairie::common::MetricsRegistry::Global());
      exec_metrics.FlushExecStats(exec_stats);
    }
    // Execution spans join the search trace: one timeline, optimize then
    // execute.
    if (sink != nullptr) exec_stats.EmitTrace(sink.get());
    executed = true;
  }
  if (diag != nullptr) {
    const double max_qerror = executed ? MaxQError(exec_stats.root()) : 0;
    const prairie::volcano::DiagTrigger trig =
        diag->Check(optimize_ms, stats, max_qerror);
    if (trig != prairie::volcano::DiagTrigger::kNone) {
      prairie::volcano::QueryDiag qd;
      qd.query_text = w->query->TreeString(algebra);
      qd.latency_ms = optimize_ms;
      qd.stats = &stats;
      qd.max_qerror = max_qerror;
      if (sink != nullptr) {
        qd.trace_slice = sink->Snapshot();
        qd.trace_dropped = sink->dropped();
      }
      if (!stats.plan_from_cache) {
        qd.provenance = optimizer.ExplainWinner();
        qd.memo_dot =
            prairie::volcano::MemoToDot(optimizer.memo(), **volcano_rules);
      }
      if (executed && exec_stats.root() != nullptr) {
        qd.analyze_text = exec_stats.ToText();
        qd.analyze_json = exec_stats.ToJson();
        qd.feedback_json = feedback_json;
        qd.est_rows = exec_stats.root()->est_rows;
        qd.actual_rows = static_cast<double>(exec_stats.root()->rows);
      }
      const std::string bundle = diag->Report(trig, qd);
      std::printf("diag: trigger %s%s%s\n",
                  prairie::volcano::DiagTriggerName(trig),
                  bundle.empty() ? "" : " -> ", bundle.c_str());
    }
  }
  if (int rc = emit_trace_outputs(); rc != 0) return rc;
  return emit_dumps();
}
