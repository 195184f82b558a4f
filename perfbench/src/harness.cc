#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/strings.h"
#include "dsl/parser.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "p2v/translator.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric the benchmark reports, with its unit. BENCHMARK.json
// declares the same two lists; run.py checks that they agree.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"queries_per_s", "1/s"},
    {"opt_ms_p50", "ms"},    {"opt_ms_p90", "ms"},
    {"opt_ms_p99", "ms"},    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"dsl.parse_ms", "ms"},
    {"p2v.translate_ms", "ms"},
    {"workload.gen_ms", "ms"},
    {"engine.construct_us", "us"},
    {"engine.optimize_ms", "ms"},
    {"engine.closure_ms", "ms"},
    {"engine.costing_ms", "ms"},
    {"engine.destroy_us", "us"},
    {"engine.trans_attempts", "count"},
    {"engine.trans_fired", "count"},
    {"engine.trans_yield", "ratio"},
    {"engine.impl_attempts", "count"},
    {"engine.plans_costed", "count"},
    {"engine.prunes", "count"},
    {"paper.Q1_ms", "ms"},
    {"paper.Q2_ms", "ms"},
    {"paper.Q3_ms", "ms"},
    {"paper.Q4_ms", "ms"},
    {"paper.Q5_ms", "ms"},
    {"paper.Q6_ms", "ms"},
    {"paper.Q7_ms", "ms"},
    {"paper.Q8_ms", "ms"},
    {"bigjoin.chain_ms", "ms"},
    {"bigjoin.star_ms", "ms"},
    {"bigjoin.clique_ms", "ms"},
    {"memo.groups", "count"},
    {"memo.mexprs", "count"},
    {"memo.arena_kb", "KiB"},
    {"intern.lookups", "count"},
    {"intern.hit_rate", "ratio"},
    {"plan.cost_geomean", "cost"},
    {"param.parameterize_us", "us"},
    {"cache.hit_us", "us"},
    {"cache.hit_rate", "ratio"},
    {"cache.rebound_share", "ratio"},
    {"cache.misses", "count"},
    {"cache.guard_rejects", "count"},
    {"cache.stale_drops", "count"},
    {"cache.evictions", "count"},
    {"cache.prime_ms", "ms"},
    {"batch.call_ms", "ms"},
    {"batch.busy_share", "ratio"},
    {"exec.to_expr_us", "us"},
    {"exec.build_us", "us"},
    {"exec.run_ms", "ms"},
    {"exec.rows", "count"},
    {"exec.ms_p50", "ms"},
    {"exec.ms_p90", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
    {"trace.requests", "count"},
};

}  // namespace

void Report::Metric(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

std::string Report::Json(bool trace) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& def) {
    double value = 0;
    for (const auto& [n, v] : values_) {
      if (n == def.name) value = v;
    }
    if (!std::isfinite(value)) value = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += prairie::common::JsonEscape(def.name);
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += def.unit;
    out += "\"}";
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  out += "}}";
  return out;
}

prairie::common::Result<LoadedSpec> LoadOodbSpec() {
  LoadedSpec spec;
  const uint64_t t0 = NowNs();
  PRAIRIE_ASSIGN_OR_RETURN(
      prairie::core::RuleSet prairie_rules,
      prairie::dsl::ParseRuleSet(prairie::opt::OodbSpecText(),
                                 prairie::opt::StandardHelpers()));
  const uint64_t t1 = NowNs();
  PRAIRIE_ASSIGN_OR_RETURN(spec.rules,
                           prairie::p2v::Translate(prairie_rules, nullptr));
  const uint64_t t2 = NowNs();
  spec.parse_ms = static_cast<double>(t1 - t0) / 1e6;
  spec.translate_ms = static_cast<double>(t2 - t1) / 1e6;
  return spec;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double Min(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return *std::min_element(values.begin(), values.end());
}

bool CostMatches(double cost, double ref) {
  return std::fabs(cost - ref) <= 1e-6 * std::max(1.0, std::fabs(ref));
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t state = seed;
  uint64_t h = SplitMix(&state);
  state = h ^ (a * 0x100000001b3ULL);
  h = SplitMix(&state);
  state = h ^ (b * 0xc2b2ae3d27d4eb4fULL);
  return SplitMix(&state);
}

}  // namespace perfbench
