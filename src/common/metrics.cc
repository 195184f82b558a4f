#include "common/metrics.h"

#include <cmath>

#include "common/strings.h"

namespace prairie::common {

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  const uint64_t target = rank == 0 ? 1 : rank;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= target) return static_cast<double>(UpperBound(i));
  }
  return static_cast<double>(UpperBound(counts.size() - 1));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      snap.counts[i] += s.counts[i].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (uint64_t c : snap.counts) snap.count += c;
  return snap;
}

MetricsRegistry* MetricsRegistry::Global() {
  // Leaked on purpose: metrics may be written by detached/atexit code.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return registry;
}

MetricsRegistry::Series* MetricsRegistry::FindOrCreate(
    std::string_view name, std::string_view help, const Labels& labels,
    Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : series_) {
    if (s->name == name && s->labels == labels) {
      // Same identity, same kind: the registry is the arbiter of types.
      return s->kind == kind ? s.get() : nullptr;
    }
  }
  auto s = std::make_unique<Series>();
  s->name = std::string(name);
  s->help = std::string(help);
  s->labels = labels;
  s->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      s->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      s->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      s->histogram = std::make_unique<Histogram>();
      break;
  }
  series_.push_back(std::move(s));
  return series_.back().get();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help,
                                     const Labels& labels) {
  Series* s = FindOrCreate(name, help, labels, Kind::kCounter);
  return s != nullptr ? s->counter.get() : nullptr;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 const Labels& labels) {
  Series* s = FindOrCreate(name, help, labels, Kind::kGauge);
  return s != nullptr ? s->gauge.get() : nullptr;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         const Labels& labels) {
  Series* s = FindOrCreate(name, help, labels, Kind::kHistogram);
  return s != nullptr ? s->histogram.get() : nullptr;
}

size_t MetricsRegistry::NumSeries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

namespace {

/// Renders {a="x",b="y"}; empty labels render as the empty string.
/// `extra` (e.g. le="...") is appended after the user labels.
std::string RenderLabels(const MetricsRegistry::Labels& labels,
                         const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + JsonEscape(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

std::string JsonLabels(const MetricsRegistry::Labels& labels) {
  if (labels.empty()) return "";
  std::string out = ",\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string last_name;
  for (const auto& s : series_) {
    if (s->name != last_name) {
      last_name = s->name;
      if (!s->help.empty()) out += "# HELP " + s->name + " " + s->help + "\n";
      const char* type = s->kind == Kind::kCounter    ? "counter"
                         : s->kind == Kind::kGauge    ? "gauge"
                                                      : "histogram";
      out += "# TYPE " + s->name + " " + type + "\n";
    }
    switch (s->kind) {
      case Kind::kCounter:
        out += s->name + RenderLabels(s->labels) + " " +
               std::to_string(s->counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += s->name + RenderLabels(s->labels) + " " +
               std::to_string(s->gauge->Value()) + "\n";
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot snap = s->histogram->Snapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < snap.counts.size(); ++i) {
          cumulative += snap.counts[i];
          // Empty buckets are skipped (log-2 gives ~48 per series); the
          // final +Inf bucket is always emitted, as Prometheus requires.
          if (snap.counts[i] == 0 && i + 1 < snap.counts.size()) continue;
          const std::string le =
              i + 1 < snap.counts.size()
                  ? "le=\"" +
                        std::to_string(HistogramSnapshot::UpperBound(i)) + "\""
                  : "le=\"+Inf\"";
          out += s->name + "_bucket" + RenderLabels(s->labels, le) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += s->name + "_sum" + RenderLabels(s->labels) + " " +
               std::to_string(snap.sum) + "\n";
        out += s->name + "_count" + RenderLabels(s->labels) + " " +
               std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::JsonSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& s : series_) {
    out += "{\"metric\":\"" + JsonEscape(s->name) + "\"" +
           JsonLabels(s->labels);
    switch (s->kind) {
      case Kind::kCounter:
        out += ",\"type\":\"counter\",\"value\":" +
               std::to_string(s->counter->Value());
        break;
      case Kind::kGauge:
        out += ",\"type\":\"gauge\",\"value\":" +
               std::to_string(s->gauge->Value());
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot snap = s->histogram->Snapshot();
        out += ",\"type\":\"histogram\",\"count\":" +
               std::to_string(snap.count) +
               ",\"sum\":" + std::to_string(snap.sum) +
               ",\"p50\":" + FormatDouble(snap.Percentile(50)) +
               ",\"p90\":" + FormatDouble(snap.Percentile(90)) +
               ",\"p99\":" + FormatDouble(snap.Percentile(99)) +
               ",\"buckets\":[";
        bool first = true;
        for (size_t i = 0; i < snap.counts.size(); ++i) {
          if (snap.counts[i] == 0) continue;
          if (!first) out += ",";
          first = false;
          out += "[" + std::to_string(HistogramSnapshot::UpperBound(i)) + "," +
                 std::to_string(snap.counts[i]) + "]";
        }
        out += "]";
        break;
      }
    }
    out += "}\n";
  }
  return out;
}

}  // namespace prairie::common
