// Unit tests for the common module: Status/Result, strings, hashing, RNG.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/function_ref.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/small_bitset.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/trace.h"

namespace prairie::common {
namespace {

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  Status st = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad arity");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad arity");
}

TEST(Status, WithContextPrependsAndPreservesCode) {
  Status st = Status::ParseError("unexpected ')'").WithContext("rule foo");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "rule foo: unexpected ')'");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kResourceExhausted);
       ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(Status, ReturnNotOkMacroPropagates) {
  auto fn = [](bool fail) -> Status {
    PRAIRIE_RETURN_NOT_OK(fail ? Status::Internal("boom") : Status::OK());
    return Status::NotFound("reached end");
  };
  EXPECT_EQ(fn(true).code(), StatusCode::kInternal);
  EXPECT_EQ(fn(false).code(), StatusCode::kNotFound);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(Result, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(Result, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::ExecError("inner failed");
    return 10;
  };
  auto outer = [&](bool fail) -> Result<int> {
    PRAIRIE_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 20);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kExecError);
}

TEST(Result, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueUnsafe();
  EXPECT_EQ(*v, 5);
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Strings, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b  "), "a b");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prairie", "pra"));
  EXPECT_FALSE(StartsWith("pra", "prairie"));
  EXPECT_TRUE(EndsWith("prairie", "rie"));
  EXPECT_FALSE(EndsWith("rie", "prairie"));
}

TEST(Strings, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(FormatDouble(12), "12");
  EXPECT_EQ(FormatDouble(3.5), "3.5");
}

TEST(Strings, JsonEscapePassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("join_commute"), "join_commute");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(Strings, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(Strings, Indent) {
  EXPECT_EQ(Indent("a\nb", 2), "  a\n  b");
}

TEST(Hash, CombineIsOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit over 1000 draws.
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(SmallBitset, StartsEmpty) {
  SmallBitset b;
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.Test(0));
  EXPECT_FALSE(b.Test(63));
  EXPECT_FALSE(b.Test(1000));
}

TEST(SmallBitset, InlineBitsAreIndependent) {
  SmallBitset b;
  b.Set(0);
  b.Set(5);
  b.Set(63);
  EXPECT_TRUE(b.Test(0));
  EXPECT_FALSE(b.Test(1));
  EXPECT_TRUE(b.Test(5));
  EXPECT_TRUE(b.Test(63));
  EXPECT_FALSE(b.None());
  b.Reset();
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.Test(5));
}

TEST(SmallBitset, BitsBeyond64DoNotAliasInlineBits) {
  // The regression this type exists for: bit 69 must not alias bit
  // 69 % 64 == 5 (the old applied_mask was a single uint64_t).
  SmallBitset b;
  b.Set(69);
  EXPECT_TRUE(b.Test(69));
  EXPECT_FALSE(b.Test(5));
  EXPECT_FALSE(b.Test(69 - 64));
  b.Set(5);
  EXPECT_TRUE(b.Test(5));
  b.Reset();
  EXPECT_FALSE(b.Test(69));
}

namespace {
int FreeAdd(int a, int b) { return a + b; }

int InvokeThrough(FunctionRef<int(int)> f, int v) { return f(v); }
}  // namespace

TEST(FunctionRef, CallsLambdasWithCapturedState) {
  int calls = 0;
  auto counter = [&calls](int v) {
    ++calls;
    return v * 2;
  };
  EXPECT_EQ(InvokeThrough(counter, 21), 42);
  EXPECT_EQ(InvokeThrough(counter, 5), 10);
  EXPECT_EQ(calls, 2);
}

TEST(FunctionRef, CallsFreeFunctions) {
  FunctionRef<int(int, int)> f = FreeAdd;
  EXPECT_EQ(f(2, 3), 5);
}

TEST(FunctionRef, MutationsThroughTheRefAreVisibleToTheCaller) {
  // FunctionRef is non-owning: it refers to the caller's callable rather
  // than copying it, so state mutated through the ref persists.
  int sum = 0;
  auto accumulate = [&sum](int v) {
    sum += v;
    return Status();
  };
  FunctionRef<Status(int)> f = accumulate;
  EXPECT_TRUE(f(3).ok());
  EXPECT_TRUE(f(4).ok());
  EXPECT_EQ(sum, 7);
}

TEST(FunctionRef, PropagatesNonOkStatus) {
  auto fail = []() { return Status::OptimizeError("stop"); };
  FunctionRef<Status()> f = fail;
  EXPECT_EQ(f().code(), StatusCode::kOptimizeError);
}

TEST(SmallBitset, HeapWordsGrowOnDemand) {
  SmallBitset b;
  for (int i : {64, 127, 128, 500, 4096}) b.Set(i);
  for (int i : {64, 127, 128, 500, 4096}) EXPECT_TRUE(b.Test(i)) << i;
  for (int i : {0, 63, 65, 129, 499, 501, 4095, 4097}) {
    EXPECT_FALSE(b.Test(i)) << i;
  }
  EXPECT_FALSE(b.None());
}

namespace {
TraceEvent EventWithGroup(int32_t g) {
  TraceEvent e;
  e.kind = TraceEventKind::kTransFire;
  e.group = g;
  e.ts_ns = static_cast<uint64_t>(g);
  return e;
}
}  // namespace

TEST(RingBufferSink, RetainsEverythingBelowCapacity) {
  RingBufferSink sink(8);
  for (int32_t i = 0; i < 5; ++i) sink.Emit(EventWithGroup(i));
  EXPECT_EQ(sink.capacity(), 8u);
  EXPECT_EQ(sink.total_emitted(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int32_t i = 0; i < 5; ++i) EXPECT_EQ(events[static_cast<size_t>(i)].group, i);
}

TEST(RingBufferSink, WrapsOverwritingOldestAndCountsDrops) {
  RingBufferSink sink(4);
  for (int32_t i = 0; i < 10; ++i) sink.Emit(EventWithGroup(i));
  EXPECT_EQ(sink.total_emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first suffix of the stream: 6, 7, 8, 9.
  for (int32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].group, 6 + i);
  }
}

TEST(RingBufferSink, ClearResetsCountersAndContents) {
  RingBufferSink sink(4);
  for (int32_t i = 0; i < 6; ++i) sink.Emit(EventWithGroup(i));
  sink.Clear();
  EXPECT_EQ(sink.total_emitted(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_TRUE(sink.Snapshot().empty());
  sink.Emit(EventWithGroup(41));
  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].group, 41);
}

TEST(RingBufferSink, CapacityIsClampedToOne) {
  RingBufferSink sink(0);
  EXPECT_EQ(sink.capacity(), 1u);
  sink.Emit(EventWithGroup(1));
  sink.Emit(EventWithGroup(2));
  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].group, 2);
}

TEST(TraceEvent, SpanKindsArePreciselyTheTimedKinds) {
  EXPECT_TRUE(IsSpanKind(TraceEventKind::kGroupExpand));
  EXPECT_TRUE(IsSpanKind(TraceEventKind::kGroupOptimize));
  EXPECT_TRUE(IsSpanKind(TraceEventKind::kTransAttempt));
  EXPECT_TRUE(IsSpanKind(TraceEventKind::kImplAttempt));
  EXPECT_TRUE(IsSpanKind(TraceEventKind::kEnforcerAttempt));
  EXPECT_FALSE(IsSpanKind(TraceEventKind::kTransFire));
  EXPECT_FALSE(IsSpanKind(TraceEventKind::kPlanCosted));
  EXPECT_FALSE(IsSpanKind(TraceEventKind::kWinnerSelected));
  EXPECT_FALSE(IsSpanKind(TraceEventKind::kPrune));
  EXPECT_FALSE(IsSpanKind(TraceEventKind::kCycleGuard));
  // Executor kinds sit after the optimizer instants, so the span set is
  // no longer a prefix of the enum.
  EXPECT_TRUE(IsSpanKind(TraceEventKind::kExecQuery));
  EXPECT_TRUE(IsSpanKind(TraceEventKind::kExecOperator));
  EXPECT_FALSE(IsSpanKind(TraceEventKind::kExecQError));
}

// ---------------------------------------------------------------------------
// Metrics: counters, histograms, registry, exposition.

TEST(MetricsCounter, IncAndValueMergeShards) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(MetricsGauge, SetAndAdd) {
  Gauge g;
  g.Set(-7);
  g.Add(10);
  EXPECT_EQ(g.Value(), 3);
}

TEST(MetricsHistogram, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  // Power-of-two edges land in the next bucket; bucket i covers
  // [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 20) - 1), 20u);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 20), 21u);
  // The last bucket absorbs everything wider than the range.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kNumBuckets - 1);
}

TEST(MetricsHistogram, UpperBoundsMatchBucketCoverage) {
  EXPECT_EQ(HistogramSnapshot::UpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::UpperBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::UpperBound(2), 3u);
  EXPECT_EQ(HistogramSnapshot::UpperBound(10), 1023u);
  // Every value maps to a bucket whose upper bound is >= the value.
  for (uint64_t v : {0ull, 1ull, 5ull, 100ull, 4096ull, 1000000ull}) {
    EXPECT_GE(HistogramSnapshot::UpperBound(Histogram::BucketIndex(v)), v);
  }
}

TEST(MetricsHistogram, SnapshotCountsAndSum) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(3);
  h.Observe(1000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 1004u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[10], 1u);
}

TEST(MetricsHistogram, PercentileWalksCumulativeCounts) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Observe(1);
  for (int i = 0; i < 10; ++i) h.Observe(1000);
  HistogramSnapshot s = h.Snapshot();
  // Rank 50 and rank 90 both land in bucket 1 (cumulative 90); rank 99
  // lands in the 1000s bucket, reported as its upper bound 1023.
  EXPECT_DOUBLE_EQ(s.Percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(90), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 1023.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.Percentile(50), 0.0);
}

TEST(MetricsHistogram, PercentileOfEmptyHistogramIsZeroEverywhere) {
  const HistogramSnapshot empty = Histogram().Snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(100), 0.0);
}

TEST(MetricsHistogram, PercentileSingleSample) {
  Histogram h;
  h.Observe(100);  // Bucket 7: [64, 127].
  const HistogramSnapshot s = h.Snapshot();
  // Every percentile of a one-sample distribution is that sample's
  // bucket upper bound, including the p0 edge (rank 0 clamps to 1).
  EXPECT_DOUBLE_EQ(s.Percentile(0), 127.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 127.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 127.0);
}

TEST(MetricsHistogram, PercentileEndpointsSpanTheDistribution) {
  Histogram h;
  h.Observe(0);
  for (int i = 0; i < 8; ++i) h.Observe(2);
  h.Observe(1 << 20);
  const HistogramSnapshot s = h.Snapshot();
  // p0 is the smallest occupied bucket, p100 the largest.
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), (1 << 21) - 1);
}

TEST(MetricsRegistry, SameIdentityReturnsSameSeries) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total", "help");
  Counter* b = reg.GetCounter("x_total");
  EXPECT_EQ(a, b);
  Counter* labelled =
      reg.GetCounter("x_total", "", {{"rule", "join_commute"}});
  EXPECT_NE(labelled, a);
  EXPECT_EQ(reg.NumSeries(), 2u);
}

TEST(MetricsRegistry, KindMismatchReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("x"), nullptr);
  EXPECT_EQ(reg.GetGauge("x"), nullptr);
  EXPECT_EQ(reg.GetHistogram("x"), nullptr);
}

TEST(MetricsRegistry, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.GetCounter("prairie_test_total", "things counted")->Inc(3);
  reg.GetGauge("prairie_depth")->Set(-2);
  Histogram* h = reg.GetHistogram("prairie_lat_ns", "latency",
                                  {{"rule", "a\"b"}});
  h->Observe(1);
  h->Observe(1);
  h->Observe(5);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# HELP prairie_test_total things counted\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE prairie_test_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("prairie_test_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("prairie_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prairie_lat_ns histogram\n"),
            std::string::npos);
  // Label values are escaped; buckets are cumulative and end at +Inf.
  EXPECT_NE(text.find("rule=\"a\\\"b\""), std::string::npos);
  EXPECT_NE(text.find("le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("le=\"7\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("prairie_lat_ns_sum{rule=\"a\\\"b\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("prairie_lat_ns_count{rule=\"a\\\"b\"} 3\n"),
            std::string::npos);
}

TEST(MetricsRegistry, PrometheusTextZeroCountHistogram) {
  // A registered-but-never-observed histogram (e.g. prairie_exec_qerror
  // before any --execute) must still render a valid exposition: headers,
  // the mandatory +Inf bucket, _sum and _count — all zero, no other
  // buckets.
  MetricsRegistry reg;
  reg.GetHistogram("prairie_idle_ns", "never observed");
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE prairie_idle_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("prairie_idle_ns_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("prairie_idle_ns_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("prairie_idle_ns_count 0\n"), std::string::npos);
  // Empty finite buckets are elided: +Inf is the only le= line.
  size_t first = text.find("le=\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("le=\"", first + 1), std::string::npos);
}

TEST(MetricsRegistry, JsonSnapshotOneObjectPerSeries) {
  MetricsRegistry reg;
  reg.GetCounter("c_total")->Inc(7);
  reg.GetHistogram("h_ns")->Observe(100);
  const std::string json = reg.JsonSnapshot();
  EXPECT_NE(json.find("{\"metric\":\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\",\"value\":7"),
            std::string::npos);
  EXPECT_NE(json.find("{\"metric\":\"h_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  // One complete JSON object per line, all braces balanced.
  size_t lines = 0;
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    const std::string_view line(json.data() + start, end - start);
    if (!line.empty()) {
      ++lines;
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
    }
    start = end + 1;
  }
  EXPECT_EQ(lines, reg.NumSeries());
}

TEST(MetricsRegistry, GlobalIsOneProcessWideInstance) {
  EXPECT_EQ(MetricsRegistry::Global(), MetricsRegistry::Global());
}

}  // namespace
}  // namespace prairie::common
