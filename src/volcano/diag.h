// Serving-grade diagnostics: anomaly triggers, diagnostic bundles, and the
// slow-query log.
//
// PRs 3/4/8 built the primitives — trace ring, metrics registry, exec
// stats, cardinality feedback — but everything is end-of-run: a 100k-query
// traffic run collapses into one p50/p99 line with no record of WHICH
// queries were slow or WHY. DiagService is the per-query layer on top:
//
//   * The driver keeps a small flight-recorder RingBufferSink armed (at
//     TraceDetail::kCoarse, cheap enough to leave on — bench_overhead
//     gates the armed-but-untriggered overhead at <= 2%).
//   * After each query it calls Check(): a cheap, allocation-free
//     evaluation of the anomaly triggers — fixed latency threshold,
//     adaptive k x running-p99 latency, max Q-error limit, anytime-budget
//     exhaustion, and plan-cache reject/stale storms.
//   * Only when Check() fires does the driver pay for diagnosis: it
//     renders the query, slices the flight recorder
//     (RingBufferSink::SnapshotSince on the pre-query mark), and calls
//     Report(), which appends one slow-query-log JSON line and — when a
//     bundle directory is configured — writes a self-contained bundle
//     under <dir>/<query-fingerprint>-<seq>/: manifest.json (trigger,
//     thresholds, compiler, flags/seed, dropped-event counts, and the
//     member list), the trace slice as Chrome trace JSON, a metrics delta
//     since the previous report, plan provenance, and the EXPLAIN ANALYZE
//     tree + cardinality feedback when the query executed.
//
// QueryDiag carries exec-side artifacts as pre-rendered strings, so this
// module depends only on common + the trace/profile layer — the volcano
// library does not grow an exec dependency.
//
// Thread-safety: Check() is lock-free (atomics) so batch workers may call
// it concurrently; Report() serializes on a mutex — it is the rare path.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "volcano/engine.h"

namespace prairie::volcano {

/// \brief Why a query was flagged. Values are ordered by precedence:
/// when several conditions hold, the lowest-valued one is reported.
enum class DiagTrigger : uint8_t {
  kNone = 0,
  kSlowFixed,        ///< latency_ms > DiagOptions::slow_ms.
  kSlowAdaptive,     ///< latency > adaptive_k x running p99.
  kQError,           ///< max operator Q-error > qerror_limit.
  kBudgetExhausted,  ///< Anytime budget truncated the search.
  kCacheStorm,       ///< Param-band rejects / stale drops reached
                     ///< cache_storm_threshold since the last firing.
};

/// Stable lower_snake_case name of a trigger ("slow_fixed", ...).
const char* DiagTriggerName(DiagTrigger t);

/// \brief Trigger thresholds and output wiring of a DiagService.
struct DiagOptions {
  /// Fixed latency threshold, milliseconds; 0 disables.
  double slow_ms = 0;
  /// Adaptive threshold: fire when latency > adaptive_k x the running p99
  /// of `latency_hist`; 0 disables. Suppressed until the histogram holds
  /// adaptive_min_count observations (early queries have no baseline).
  double adaptive_k = 0;
  uint64_t adaptive_min_count = 256;
  /// The histogram the adaptive trigger reads (typically
  /// VolcanoMetrics::query_latency_ns; values in nanoseconds). Its
  /// snapshot is ~768 relaxed loads, so Check() caches the p99 and
  /// refreshes it once every 64 calls.
  const common::Histogram* latency_hist = nullptr;
  /// Max per-operator Q-error limit (requires exec stats); 0 disables.
  double qerror_limit = 0;
  /// Fire on OptimizerStats::budget_exhausted.
  bool on_budget_exhausted = true;
  /// Fire once every N plan-cache param-band rejects + stale drops
  /// (a reject "storm" means the band guard or invalidation is churning);
  /// 0 disables.
  size_t cache_storm_threshold = 0;

  /// Bundle directory; empty disables bundles (the slow log alone still
  /// works). Created on demand.
  std::string diag_dir;
  /// Hard cap on bundles per service lifetime (a pathological workload
  /// must not fill the disk); further triggers still reach the slow log.
  size_t max_bundles = 16;
  /// Slow-query log stream (borrowed; null disables). One JSON line per
  /// reported query.
  std::ostream* slow_log = nullptr;

  /// Metrics registry sampled for per-bundle delta snapshots (optional).
  const common::MetricsRegistry* registry = nullptr;
  /// Rule set for naming trace/profile rows in bundles (optional; without
  /// it the trace slice and top-rule table are omitted).
  const RuleSet* rules = nullptr;
  /// Reproduction provenance recorded into manifests: the driver's
  /// command line / flag rendering and workload seed.
  std::string flags;
  uint64_t seed = 0;
};

/// \brief Everything Report() needs about one offending query. All string
/// members are pre-rendered by the driver (on the trigger path only);
/// empty members are simply omitted from the bundle.
struct QueryDiag {
  /// Textual form of the query; fingerprinted (FNV-1a) for the bundle
  /// directory name and log records.
  std::string query_text;
  double latency_ms = 0;
  const OptimizerStats* stats = nullptr;
  double max_qerror = 0;  ///< 0 when the query did not execute.

  /// Flight-recorder slice for this query (SnapshotSince on the pre-query
  /// mark) and how many of the query's events the ring had already
  /// overwritten when it was sliced.
  std::vector<common::TraceEvent> trace_slice;
  size_t trace_dropped = 0;

  std::string provenance;     ///< ExplainWinner / cached-plan provenance.
  std::string memo_dot;       ///< Memo DOT dump (optional).
  std::string analyze_text;   ///< EXPLAIN ANALYZE tree (optional).
  std::string analyze_json;   ///< ExecStats::ToJson (optional).
  std::string feedback_json;  ///< exec::FeedbackJson lines (optional).
  double est_rows = -1;       ///< Root estimate (<0 = unknown).
  double actual_rows = -1;    ///< Root actual (<0 = did not execute).
};

/// \brief Per-query anomaly evaluation and reporting. One service per
/// traffic/batch run; shared by workers.
class DiagService {
 public:
  explicit DiagService(DiagOptions options);

  /// Evaluates the triggers for one finished query. Cheap and lock-free:
  /// no allocation, no I/O; at most a cached-p99 refresh every 64th call.
  /// Returns the highest-precedence firing trigger, kNone otherwise.
  DiagTrigger Check(double latency_ms, const OptimizerStats& stats,
                    double max_qerror = 0);

  /// Reports one offending query: appends the slow-log record and, when a
  /// bundle directory is configured and the cap not reached, writes the
  /// bundle. Returns the bundle directory path ("" when only logged).
  /// Serialized internally; safe from concurrent workers.
  std::string Report(DiagTrigger trigger, const QueryDiag& diag);

  size_t bundles_written() const {
    return bundles_.load(std::memory_order_relaxed);
  }
  size_t reports() const { return reports_.load(std::memory_order_relaxed); }
  const DiagOptions& options() const { return options_; }

  /// FNV-1a 64-bit fingerprint of the query text (the bundle/log key).
  static uint64_t Fingerprint(std::string_view text);

  /// The slow-query-log JSON record (no trailing newline). Exposed for
  /// tests; Report() writes exactly this plus the bundle path.
  std::string SlowLogRecord(DiagTrigger trigger, const QueryDiag& diag,
                            const std::string& bundle_dir) const;

 private:
  /// Writes one bundle; returns its directory or "" on failure.
  std::string WriteBundle(DiagTrigger trigger, const QueryDiag& diag,
                          uint64_t fingerprint, size_t seq);

  DiagOptions options_;
  std::atomic<uint64_t> check_calls_{0};
  std::atomic<uint64_t> cached_p99_ns_{0};
  std::atomic<uint64_t> cached_hist_count_{0};
  std::atomic<size_t> storm_accum_{0};
  std::atomic<size_t> bundles_{0};
  std::atomic<size_t> reports_{0};

  std::mutex report_mu_;
  /// Baseline for per-bundle metrics deltas (previous report's sample).
  std::vector<common::MetricsRegistry::SeriesSample> last_sample_;
};

/// Cache outcome of one query as a log token: "exact" / "param" (hit via
/// skeleton rebinding) / "reject" (param-band guard) / "stale" (entry
/// dropped) / "miss" / "off" (no cache configured).
const char* CacheOutcome(const OptimizerStats& stats);

}  // namespace prairie::volcano
