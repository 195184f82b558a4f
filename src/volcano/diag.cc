#include "volcano/diag.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/buildinfo.h"
#include "common/strings.h"
#include "common/timeseries.h"
#include "volcano/profile.h"

namespace prairie::volcano {

namespace {

/// Writes `content` to `path`, returning success. Bundle members are
/// small; no streaming needed.
bool WriteFile(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return false;
  out << content;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace

const char* DiagTriggerName(DiagTrigger t) {
  switch (t) {
    case DiagTrigger::kNone:
      return "none";
    case DiagTrigger::kSlowFixed:
      return "slow_fixed";
    case DiagTrigger::kSlowAdaptive:
      return "slow_adaptive";
    case DiagTrigger::kQError:
      return "qerror";
    case DiagTrigger::kBudgetExhausted:
      return "budget_exhausted";
    case DiagTrigger::kCacheStorm:
      return "cache_storm";
  }
  return "unknown";
}

const char* CacheOutcome(const OptimizerStats& stats) {
  if (stats.plan_from_cache) {
    return stats.cache_param_hits > 0 ? "param" : "exact";
  }
  if (stats.cache_param_rejects > 0) return "reject";
  if (stats.cache_stale_drops > 0) return "stale";
  if (stats.cache_probes > 0) return "miss";
  return "off";
}

DiagService::DiagService(DiagOptions options) : options_(std::move(options)) {
  if (options_.registry != nullptr) {
    // Baseline for the first bundle's metrics delta.
    last_sample_ = options_.registry->Sample();
  }
}

uint64_t DiagService::Fingerprint(std::string_view text) {
  // FNV-1a 64: stable across runs and platforms, cheap, and only computed
  // on the trigger path.
  uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

DiagTrigger DiagService::Check(double latency_ms, const OptimizerStats& stats,
                               double max_qerror) {
  DiagTrigger fired = DiagTrigger::kNone;
  if (options_.slow_ms > 0 && latency_ms > options_.slow_ms) {
    fired = DiagTrigger::kSlowFixed;
  }
  if (options_.adaptive_k > 0 && options_.latency_hist != nullptr) {
    const uint64_t n =
        check_calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    // A histogram snapshot is ~768 relaxed loads — too heavy per query.
    // Refresh the cached p99 on the first call and then 1-in-64.
    if ((n & 63) == 1) {
      const common::HistogramSnapshot snap = options_.latency_hist->Snapshot();
      cached_p99_ns_.store(static_cast<uint64_t>(snap.Percentile(99)),
                           std::memory_order_relaxed);
      cached_hist_count_.store(snap.count, std::memory_order_relaxed);
    }
    const uint64_t count = cached_hist_count_.load(std::memory_order_relaxed);
    const uint64_t p99_ns = cached_p99_ns_.load(std::memory_order_relaxed);
    if (fired == DiagTrigger::kNone && count >= options_.adaptive_min_count &&
        p99_ns > 0 &&
        latency_ms * 1e6 >
            options_.adaptive_k * static_cast<double>(p99_ns)) {
      fired = DiagTrigger::kSlowAdaptive;
    }
  }
  if (fired == DiagTrigger::kNone && options_.qerror_limit > 0 &&
      max_qerror > options_.qerror_limit) {
    fired = DiagTrigger::kQError;
  }
  if (fired == DiagTrigger::kNone && options_.on_budget_exhausted &&
      stats.budget_exhausted) {
    fired = DiagTrigger::kBudgetExhausted;
  }
  if (options_.cache_storm_threshold > 0) {
    const size_t add = stats.cache_param_rejects + stats.cache_stale_drops;
    if (add > 0) {
      // fetch_add makes the threshold crossing observable by exactly one
      // caller even under concurrent workers.
      const size_t before = storm_accum_.fetch_add(add, std::memory_order_relaxed);
      if (before < options_.cache_storm_threshold &&
          before + add >= options_.cache_storm_threshold) {
        storm_accum_.fetch_sub(options_.cache_storm_threshold,
                               std::memory_order_relaxed);
        if (fired == DiagTrigger::kNone) fired = DiagTrigger::kCacheStorm;
      }
    }
  }
  return fired;
}

std::string DiagService::SlowLogRecord(DiagTrigger trigger,
                                       const QueryDiag& diag,
                                       const std::string& bundle_dir) const {
  using common::FormatDouble;
  const OptimizerStats empty_stats;
  const OptimizerStats& st = diag.stats != nullptr ? *diag.stats : empty_stats;
  // Latency breakdown from the flight-recorder slice: top-level (depth 0)
  // search spans plus the executor span. Coarse detail still carries all
  // three.
  uint64_t expand_ns = 0, optimize_ns = 0, exec_ns = 0;
  for (const common::TraceEvent& e : diag.trace_slice) {
    if (e.depth != 0) continue;
    if (e.kind == common::TraceEventKind::kGroupExpand) expand_ns += e.dur_ns;
    if (e.kind == common::TraceEventKind::kGroupOptimize) {
      optimize_ns += e.dur_ns;
    }
    if (e.kind == common::TraceEventKind::kExecQuery) exec_ns += e.dur_ns;
  }
  std::string out =
      "{\"ts_ms\":" +
      std::to_string(common::TraceNowNs() / 1000000) +
      ",\"fingerprint\":\"" +
      common::HexEncode(Fingerprint(diag.query_text)) + "\",\"trigger\":\"" +
      DiagTriggerName(trigger) +
      "\",\"latency_ms\":" + FormatDouble(diag.latency_ms) + ",\"cache\":\"" +
      CacheOutcome(st) + "\",\"budget_exhausted\":" +
      (st.budget_exhausted ? "true" : "false") +
      ",\"stats\":{\"groups\":" + std::to_string(st.groups) +
      ",\"mexprs\":" + std::to_string(st.mexprs) +
      ",\"plans_costed\":" + std::to_string(st.plans_costed) + "}" +
      ",\"breakdown_ms\":{\"expand\":" +
      FormatDouble(static_cast<double>(expand_ns) / 1e6) +
      ",\"optimize\":" +
      FormatDouble(static_cast<double>(optimize_ns) / 1e6) +
      ",\"exec\":" + FormatDouble(static_cast<double>(exec_ns) / 1e6) + "}";
  // Top-k rules by self time (needs attempt spans, i.e.
  // TraceDetail::kFull; coarse slices yield an empty list).
  out += ",\"top_rules\":[";
  if (options_.rules != nullptr && !diag.trace_slice.empty()) {
    const RuleProfile profile =
        BuildRuleProfile(diag.trace_slice, *options_.rules, diag.trace_dropped);
    std::vector<const RuleProfileRow*> rows;
    for (const auto* cls : {&profile.trans, &profile.impl, &profile.enforcers}) {
      for (const RuleProfileRow& r : *cls) {
        if (r.attempts > 0) rows.push_back(&r);
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const RuleProfileRow* a, const RuleProfileRow* b) {
                return a->self_ns > b->self_ns;
              });
    if (rows.size() > 3) rows.resize(3);
    bool first = true;
    for (const RuleProfileRow* r : rows) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + common::JsonEscape(r->name) +
             "\",\"attempts\":" + std::to_string(r->attempts) +
             ",\"self_us\":" +
             FormatDouble(static_cast<double>(r->self_ns) / 1e3) + "}";
    }
  }
  out += "]";
  if (diag.est_rows >= 0) {
    out += ",\"est_rows\":" + FormatDouble(diag.est_rows);
  }
  if (diag.actual_rows >= 0) {
    out += ",\"actual_rows\":" + FormatDouble(diag.actual_rows);
  }
  if (diag.max_qerror > 0) {
    out += ",\"max_qerror\":" + FormatDouble(diag.max_qerror);
  }
  out += ",\"trace_events\":" + std::to_string(diag.trace_slice.size()) +
         ",\"trace_dropped\":" + std::to_string(diag.trace_dropped) +
         ",\"bundle\":\"" + common::JsonEscape(bundle_dir) + "\"}";
  return out;
}

std::string DiagService::WriteBundle(DiagTrigger trigger,
                                     const QueryDiag& diag,
                                     uint64_t fingerprint, size_t seq) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(options_.diag_dir) /
                       (common::HexEncode(fingerprint) + "-" +
                        std::to_string(seq));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return "";
  std::vector<std::string> members;
  auto add = [&](const char* name, const std::string& content) {
    if (WriteFile(dir / name, content)) members.emplace_back(name);
  };
  if (!diag.query_text.empty()) add("query.txt", diag.query_text + "\n");
  if (options_.rules != nullptr && !diag.trace_slice.empty()) {
    if (WriteChromeTrace((dir / "trace.json").string(), diag.trace_slice,
                         *options_.rules, diag.trace_dropped)
            .ok()) {
      members.emplace_back("trace.json");
    }
  }
  if (options_.registry != nullptr) {
    // Delta since the previous report (or service arming): what the
    // process-wide counters did around the anomaly, not since boot.
    std::vector<common::MetricsRegistry::SeriesSample> cur =
        options_.registry->Sample();
    add("metrics_delta.json",
        "{\"metrics\":[" + common::TimeSeriesWriter::Delta(last_sample_, cur) +
            "]}\n");
    last_sample_ = std::move(cur);
  }
  if (!diag.provenance.empty()) add("provenance.txt", diag.provenance);
  if (!diag.memo_dot.empty()) add("memo.dot", diag.memo_dot);
  if (!diag.analyze_text.empty()) add("analyze.txt", diag.analyze_text);
  if (!diag.analyze_json.empty()) add("analyze.json", diag.analyze_json);
  if (!diag.feedback_json.empty()) add("feedback.json", diag.feedback_json);
  add("slow_record.json",
      SlowLogRecord(trigger, diag, dir.string()) + "\n");
  // The manifest lists every member actually written (itself included):
  // a bundle consumer can verify completeness without globbing.
  members.emplace_back("manifest.json");
  std::string manifest =
      std::string("{\"trigger\":\"") + DiagTriggerName(trigger) +
      "\",\"fingerprint\":\"" + common::HexEncode(fingerprint) +
      "\",\"seq\":" + std::to_string(seq) +
      ",\"latency_ms\":" + common::FormatDouble(diag.latency_ms) +
      ",\"thresholds\":{\"slow_ms\":" + common::FormatDouble(options_.slow_ms) +
      ",\"adaptive_k\":" + common::FormatDouble(options_.adaptive_k) +
      ",\"qerror_limit\":" + common::FormatDouble(options_.qerror_limit) +
      ",\"cache_storm_threshold\":" +
      std::to_string(options_.cache_storm_threshold) + "}" +
      ",\"build\":" + common::BuildConfigJson() + ",\"flags\":\"" +
      common::JsonEscape(options_.flags) +
      "\",\"seed\":" + std::to_string(options_.seed) +
      ",\"dropped_events\":" + std::to_string(diag.trace_dropped) +
      ",\"files\":[";
  bool first = true;
  for (const std::string& m : members) {
    if (!first) manifest += ",";
    first = false;
    manifest += "\"" + common::JsonEscape(m) + "\"";
  }
  manifest += "]}\n";
  if (!WriteFile(dir / "manifest.json", manifest)) return "";
  return dir.string();
}

std::string DiagService::Report(DiagTrigger trigger, const QueryDiag& diag) {
  if (trigger == DiagTrigger::kNone) return "";
  std::lock_guard<std::mutex> lock(report_mu_);
  const size_t seq = reports_.fetch_add(1, std::memory_order_relaxed);
  std::string bundle_dir;
  if (!options_.diag_dir.empty() &&
      bundles_.load(std::memory_order_relaxed) < options_.max_bundles) {
    bundle_dir =
        WriteBundle(trigger, diag, Fingerprint(diag.query_text), seq);
    if (!bundle_dir.empty()) {
      bundles_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (options_.slow_log != nullptr) {
    (*options_.slow_log) << SlowLogRecord(trigger, diag, bundle_dir) << "\n";
    options_.slow_log->flush();
  }
  return bundle_dir;
}

}  // namespace prairie::volcano
