// Process-wide aggregate metrics (the observability layer's second half).
//
// PR 3's trace stream answers "what happened during this one search";
// metrics answer "what is this process doing over time" — monotonic
// counters, point-in-time gauges, and log-bucketed latency histograms that
// survive an 8-worker batch run and export in one call.
//
// Cost model (mirrors common/trace.h):
//   * Off: code given no metrics bundle (a null OptimizerOptions::metrics
//     is the default) pays one branch per flush or sample site.
//   * Hot path: one relaxed atomic add into a per-thread shard — no locks,
//     no cache-line ping-pong between worker threads (shards are
//     cache-line padded and picked by thread id). Values are merged across
//     shards only at snapshot/export time.
//   * Registration (GetCounter/GetGauge/GetHistogram) takes a mutex and is
//     meant for setup code, not per-event paths: register once, hold the
//     pointer, increment forever.
//
// Exporters: PrometheusText() renders the text exposition format (# HELP /
// # TYPE, cumulative `le` buckets); JsonSnapshot() renders one JSON object
// per line, the same convention the bench harness writes BENCH_*.json in.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace prairie::common {

/// Stable per-thread shard index (hash of the thread id). Cached in a
/// thread_local so the hot path pays one TLS read, not a hash.
inline size_t MetricsShardIndex() {
  thread_local const size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return index;
}

/// \brief Monotonic counter, sharded per thread: Inc() is one relaxed
/// atomic add with no inter-thread contention; Value() merges the shards.
class Counter {
 public:
  static constexpr size_t kNumShards = 16;

  void Inc(uint64_t n = 1) {
    shards_[MetricsShardIndex() & (kNumShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over all shards (snapshot-time merge).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kNumShards> shards_;
};

/// \brief Point-in-time signed value. Set/Add are not sharded — gauges are
/// written from setup/summary code, not hot loops.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Merged view of a Histogram at one instant.
struct HistogramSnapshot {
  /// counts[i] = observations in bucket i (NOT cumulative).
  std::array<uint64_t, 48> counts{};
  uint64_t count = 0;  ///< Total observations.
  uint64_t sum = 0;    ///< Sum of observed values.

  /// Upper bound (inclusive) of bucket `i`: 0 for bucket 0, 2^i - 1
  /// otherwise; the last bucket is unbounded (rendered +Inf by exporters).
  static uint64_t UpperBound(size_t i) {
    return i == 0 ? 0 : (uint64_t{1} << i) - 1;
  }

  /// The p-th percentile (p in [0, 100]) as the upper bound of the first
  /// bucket whose cumulative count reaches ceil(p/100 * count). Log-2
  /// buckets bound the overestimate to 2x the true value. 0 when empty.
  double Percentile(double p) const;
};

/// \brief Log-2-bucketed histogram of non-negative integer samples
/// (typically latencies in nanoseconds). Bucket 0 holds the value 0;
/// bucket i >= 1 holds values with bit width i, i.e. [2^(i-1), 2^i - 1];
/// the last bucket absorbs everything wider. Observe() is two relaxed
/// atomic adds into the calling thread's shard.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 48;  // 2^47 ns ~ 39 hours.
  static constexpr size_t kNumShards = 16;

  /// Bucket index of `v`: 0 for 0, else bit_width(v) clamped to the range.
  static size_t BucketIndex(uint64_t v) {
    if (v == 0) return 0;
    const size_t w = static_cast<size_t>(std::bit_width(v));
    return w < kNumBuckets ? w : kNumBuckets - 1;
  }

  void Observe(uint64_t v) {
    Shard& s = shards_[MetricsShardIndex() & (kNumShards - 1)];
    s.counts[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  /// Merges all shards into one consistent-enough view (concurrent
  /// Observe() calls may or may not be included; each is atomic).
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> counts{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kNumShards> shards_;
};

/// \brief Owner and exporter of named metrics.
///
/// Metrics are identified by (name, labels); re-registering the same
/// identity returns the same object, so independent subsystems can share a
/// series without coordination. Construct standalone registries freely
/// (tests, per-run isolation) or use the process-wide Global().
class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry* Global();

  /// Finds or creates the series. The returned pointer is stable for the
  /// registry's lifetime. `help` is kept from the first registration of
  /// `name`. Thread-safe; not for hot paths.
  Counter* GetCounter(std::string_view name, std::string_view help = "",
                      const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help = "",
                  const Labels& labels = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help = "",
                          const Labels& labels = {});

  /// Prometheus text exposition: one # HELP / # TYPE header per metric
  /// name, then every series; histograms render cumulative `le` buckets
  /// plus _sum and _count.
  std::string PrometheusText() const;

  /// One JSON object per line (the BENCH_*.json convention): counters and
  /// gauges as {"metric":...,"type":...,"value":...}, histograms with
  /// count/sum/percentiles and their non-empty buckets.
  std::string JsonSnapshot() const;

  size_t NumSeries() const;

 private:
  /// What a series measures.
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Series {
    std::string name;
    std::string help;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series* FindOrCreate(std::string_view name, std::string_view help,
                       const Labels& labels, Kind kind);

  mutable std::mutex mu_;
  /// Insertion-ordered so exports are deterministic; series pointers are
  /// stable because entries are heap-allocated.
  std::vector<std::unique_ptr<Series>> series_;
};

}  // namespace prairie::common
