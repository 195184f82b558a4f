#include "common/timeseries.h"

#include <chrono>

#include "common/strings.h"

namespace prairie::common {

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
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

/// counts/sum of `after` minus `before`, saturating at 0 per bucket (the
/// relaxed shard merges make regressions impossible for a single scraping
/// thread, but saturation keeps a torn read from flipping sign).
HistogramSnapshot HistDelta(const HistogramSnapshot& before,
                            const HistogramSnapshot& after) {
  HistogramSnapshot d;
  for (size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] =
        after.counts[i] > before.counts[i] ? after.counts[i] - before.counts[i]
                                           : 0;
    d.count += d.counts[i];
  }
  d.sum = after.sum > before.sum ? after.sum - before.sum : 0;
  return d;
}

}  // namespace

TimeSeriesWriter::TimeSeriesWriter(const MetricsRegistry* registry,
                                   std::ostream* out, Options options)
    : registry_(registry), out_(out), options_(options) {
  last_ = registry_->Sample();
  armed_ns_ = SteadyNowNs();
}

bool TimeSeriesWriter::MaybeScrape(bool force) {
  const uint64_t now_ms = (SteadyNowNs() - armed_ns_) / 1000000;
  return ScrapeAt(now_ms, force);
}

bool TimeSeriesWriter::ScrapeAt(uint64_t now_ms, bool force) {
  if (!force && scraped_once_ &&
      now_ms - last_scrape_ms_ < options_.interval_ms) {
    return false;
  }
  std::vector<MetricsRegistry::SeriesSample> cur = registry_->Sample();
  const uint64_t window_ms =
      scraped_once_ ? now_ms - last_scrape_ms_ : now_ms;
  std::string line = "{\"ts_ms\":" + std::to_string(now_ms) +
                     ",\"interval_ms\":" + std::to_string(window_ms) +
                     ",\"seq\":" + std::to_string(seq_) + ",\"metrics\":[" +
                     Delta(last_, cur) + "]}\n";
  (*out_) << line;
  out_->flush();
  last_ = std::move(cur);
  last_scrape_ms_ = now_ms;
  scraped_once_ = true;
  ++seq_;
  return true;
}

std::string TimeSeriesWriter::Delta(
    const std::vector<MetricsRegistry::SeriesSample>& before,
    const std::vector<MetricsRegistry::SeriesSample>& after) {
  std::string out;
  bool first = true;
  auto append = [&](const std::string& body) {
    if (!first) out += ",";
    first = false;
    out += body;
  };
  // The registry is append-only and insertion-ordered, so `before` is a
  // prefix of `after` (identity-wise); series born mid-window diff
  // against a zero baseline.
  for (size_t i = 0; i < after.size(); ++i) {
    const MetricsRegistry::SeriesSample& a = after[i];
    const bool has_before = i < before.size() && before[i].name == a.name &&
                            before[i].labels == a.labels &&
                            before[i].kind == a.kind;
    const std::string head =
        "{\"metric\":\"" + JsonEscape(a.name) + "\"" + JsonLabels(a.labels);
    switch (a.kind) {
      case MetricKind::kCounter: {
        const uint64_t prev = has_before ? before[i].counter : 0;
        const uint64_t delta = a.counter > prev ? a.counter - prev : 0;
        if (delta == 0) break;
        append(head + ",\"type\":\"counter\",\"delta\":" +
               std::to_string(delta) +
               ",\"total\":" + std::to_string(a.counter) + "}");
        break;
      }
      case MetricKind::kGauge: {
        const int64_t prev = has_before ? before[i].gauge : 0;
        if (a.gauge == prev) break;
        append(head +
               ",\"type\":\"gauge\",\"value\":" + std::to_string(a.gauge) +
               "}");
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramSnapshot d =
            has_before ? HistDelta(before[i].hist, a.hist) : a.hist;
        if (d.count == 0) break;
        std::string body = head + ",\"type\":\"histogram\",\"count\":" +
                           std::to_string(d.count) +
                           ",\"sum\":" + std::to_string(d.sum) +
                           ",\"p50\":" + FormatDouble(d.Percentile(50)) +
                           ",\"p90\":" + FormatDouble(d.Percentile(90)) +
                           ",\"p99\":" + FormatDouble(d.Percentile(99)) +
                           ",\"buckets\":[";
        bool bfirst = true;
        for (size_t b = 0; b < d.counts.size(); ++b) {
          if (d.counts[b] == 0) continue;
          if (!bfirst) body += ",";
          bfirst = false;
          body += "[" + std::to_string(HistogramSnapshot::UpperBound(b)) +
                  "," + std::to_string(d.counts[b]) + "]";
        }
        body += "]}";
        append(body);
        break;
      }
    }
  }
  return out;
}

}  // namespace prairie::common
