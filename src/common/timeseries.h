// Windowed time-series export of a MetricsRegistry.
//
// The registry's exporters (PrometheusText / JsonSnapshot) render
// cumulative process-lifetime values: a 100k-query traffic run collapses
// into one end-of-run p50/p99. TimeSeriesWriter turns the same registry
// into a sequence of *interval* records — it keeps the previous Sample()
// vector, subtracts it from the current one at each scrape, and writes one
// JSON line per window. Counter lines carry the per-window delta (plus the
// cumulative total); histogram lines carry per-window count/sum and
// percentiles computed over the delta buckets only, so a latency spike in
// window 7 is visible in window 7 instead of being averaged away.
//
// Record format (JSON lines, one object per scrape):
//   {"ts_ms":12345,"interval_ms":250,"seq":3,"metrics":[
//     {"metric":"...","type":"counter","delta":12,"total":340},
//     {"metric":"...","type":"gauge","value":8},
//     {"metric":"...","type":"histogram","count":97,"sum":12345,
//      "p50":...,"p90":...,"p99":...,"buckets":[[ub,c],...]} ]}
// ts_ms is milliseconds since the writer was armed (steady clock), so
// successive records have monotonically nondecreasing timestamps.
// Series that did not change during the window are omitted.
//
// Threading: scrapes are driver-side (the traffic/batch loop calls
// MaybeScrape between chunks); concurrent metric *writers* are fine —
// Sample() uses the same relaxed shard merges as the exporters — but the
// writer itself is not thread-safe and expects one scraping thread.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace prairie::common {

/// \brief Scrape cadence of a TimeSeriesWriter.
struct TimeSeriesOptions {
  /// Minimum milliseconds between scrapes; MaybeScrape() calls inside
  /// the window are no-ops. 0 means every MaybeScrape() call scrapes.
  uint64_t interval_ms = 250;
};

/// \brief Interval-delta scraper: arms on construction (baseline sample),
/// then each scrape diffs against the previous sample and appends one
/// JSON line to the output stream.
class TimeSeriesWriter {
 public:
  using Options = TimeSeriesOptions;

  /// Arms the writer: takes the baseline sample and the t=0 timestamp.
  /// `out` must outlive the writer; nothing is written until a scrape.
  TimeSeriesWriter(const MetricsRegistry* registry, std::ostream* out,
                   Options options = Options());

  /// Scrapes if at least interval_ms elapsed since the last scrape (or if
  /// `force`). Returns true if a record was written. Call this from the
  /// driver loop between work chunks; it reads the steady clock once.
  bool MaybeScrape(bool force = false);

  /// Deterministic-clock variant for tests and for drivers that already
  /// know the time: `now_ms` is milliseconds since arming.
  bool ScrapeAt(uint64_t now_ms, bool force = false);

  /// Records written so far.
  uint64_t seq() const { return seq_; }

  /// Renders the delta between two Sample() vectors as the "metrics":[...]
  /// array body (no surrounding envelope), omitting unchanged series.
  /// `before` may be shorter than `after` — series registered mid-window
  /// diff against zero.
  static std::string Delta(const std::vector<MetricsRegistry::SeriesSample>& before,
                           const std::vector<MetricsRegistry::SeriesSample>& after);

 private:
  const MetricsRegistry* registry_;
  std::ostream* out_;
  Options options_;
  std::vector<MetricsRegistry::SeriesSample> last_;
  uint64_t armed_ns_ = 0;     ///< Steady-clock arming time.
  uint64_t last_scrape_ms_ = 0;
  bool scraped_once_ = false;
  uint64_t seq_ = 0;
};

}  // namespace prairie::common
