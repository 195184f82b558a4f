// Tests for the serving-grade diagnostics layer (volcano/diag.h): trigger
// precedence and suppression in DiagService::Check, the slow-query-log
// record, bundle writing (manifest completeness, the max_bundles cap),
// the flight-recorder coarse detail filter, and the BatchOptimizer
// wiring.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "optimizers/oodb.h"
#include "p2v/translator.h"
#include "volcano/batch.h"
#include "volcano/diag.h"
#include "volcano/engine.h"
#include "workload/workload.h"

namespace prairie {
namespace {

namespace fs = std::filesystem;

using volcano::CacheOutcome;
using volcano::DiagOptions;
using volcano::DiagService;
using volcano::DiagTrigger;
using volcano::DiagTriggerName;
using volcano::OptimizerStats;
using volcano::QueryDiag;

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)             \
  auto PRAIRIE_CONCAT(_res_, __LINE__) = (rexpr);    \
  ASSERT_TRUE(PRAIRIE_CONCAT(_res_, __LINE__).ok())  \
      << PRAIRIE_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(PRAIRIE_CONCAT(_res_, __LINE__)).ValueUnsafe();

/// A scratch directory under the system temp root, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("prairie_diag_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Check(): trigger evaluation.

TEST(DiagCheck, AllTriggersDisabledNeverFires) {
  DiagOptions opt;
  opt.on_budget_exhausted = false;
  DiagService diag(opt);
  OptimizerStats stats;
  stats.budget_exhausted = true;
  stats.cache_param_rejects = 100;
  EXPECT_EQ(diag.Check(1e9, stats, /*max_qerror=*/1e9), DiagTrigger::kNone);
}

TEST(DiagCheck, PrecedenceFollowsEnumOrder) {
  DiagOptions opt;
  opt.slow_ms = 10;
  opt.qerror_limit = 2;
  opt.on_budget_exhausted = true;
  DiagService diag(opt);
  OptimizerStats stats;
  stats.budget_exhausted = true;
  // Everything fires: the fixed latency trigger wins.
  EXPECT_EQ(diag.Check(100, stats, 50), DiagTrigger::kSlowFixed);
  // Latency below threshold: Q-error outranks budget exhaustion.
  EXPECT_EQ(diag.Check(1, stats, 50), DiagTrigger::kQError);
  // Q-error below limit: the budget trigger is what remains.
  EXPECT_EQ(diag.Check(1, stats, 1), DiagTrigger::kBudgetExhausted);
  stats.budget_exhausted = false;
  EXPECT_EQ(diag.Check(1, stats, 1), DiagTrigger::kNone);
}

TEST(DiagCheck, AdaptiveSuppressedUntilHistogramHasBaseline) {
  common::Histogram hist;
  for (int i = 0; i < 10; ++i) hist.Observe(1'000'000);  // 1ms.
  DiagOptions opt;
  opt.adaptive_k = 2;
  opt.adaptive_min_count = 256;  // 10 observations is no baseline yet.
  opt.latency_hist = &hist;
  opt.on_budget_exhausted = false;
  DiagService diag(opt);
  OptimizerStats stats;
  EXPECT_EQ(diag.Check(1e6, stats), DiagTrigger::kNone);
}

TEST(DiagCheck, AdaptiveFiresAgainstTheRunningP99) {
  common::Histogram hist;
  // p99 upper bound of 1ms samples: 2^20 - 1 ns (~1.05ms).
  for (int i = 0; i < 512; ++i) hist.Observe(1'000'000);
  DiagOptions opt;
  opt.adaptive_k = 2;
  opt.adaptive_min_count = 256;
  opt.latency_hist = &hist;
  opt.on_budget_exhausted = false;
  DiagService diag(opt);
  OptimizerStats stats;
  // ~1ms latency: within 2 x p99.
  EXPECT_EQ(diag.Check(1.0, stats), DiagTrigger::kNone);
  // 100ms latency: far beyond 2 x p99.
  EXPECT_EQ(diag.Check(100.0, stats), DiagTrigger::kSlowAdaptive);
}

TEST(DiagCheck, CacheStormFiresOncePerThresholdCrossing) {
  DiagOptions opt;
  opt.cache_storm_threshold = 8;
  opt.on_budget_exhausted = false;
  DiagService diag(opt);
  OptimizerStats stats;
  stats.cache_param_rejects = 3;
  stats.cache_stale_drops = 1;  // 4 per Check.
  EXPECT_EQ(diag.Check(0, stats), DiagTrigger::kNone);        // accum 4.
  EXPECT_EQ(diag.Check(0, stats), DiagTrigger::kCacheStorm);  // crosses 8.
  EXPECT_EQ(diag.Check(0, stats), DiagTrigger::kNone);        // accum 4.
  EXPECT_EQ(diag.Check(0, stats), DiagTrigger::kCacheStorm);
}

TEST(DiagService, FingerprintIsStableAndSeparatesQueries) {
  const uint64_t a = DiagService::Fingerprint("Join(A, B)");
  EXPECT_EQ(a, DiagService::Fingerprint("Join(A, B)"));
  EXPECT_NE(a, DiagService::Fingerprint("Join(A, C)"));
  EXPECT_NE(a, DiagService::Fingerprint(""));
}

TEST(DiagService, TriggerNamesAreStableTokens) {
  EXPECT_STREQ(DiagTriggerName(DiagTrigger::kNone), "none");
  EXPECT_STREQ(DiagTriggerName(DiagTrigger::kSlowFixed), "slow_fixed");
  EXPECT_STREQ(DiagTriggerName(DiagTrigger::kSlowAdaptive), "slow_adaptive");
  EXPECT_STREQ(DiagTriggerName(DiagTrigger::kQError), "qerror");
  EXPECT_STREQ(DiagTriggerName(DiagTrigger::kBudgetExhausted),
               "budget_exhausted");
  EXPECT_STREQ(DiagTriggerName(DiagTrigger::kCacheStorm), "cache_storm");
}

TEST(DiagService, CacheOutcomeTokens) {
  OptimizerStats stats;
  EXPECT_STREQ(CacheOutcome(stats), "off");
  stats.cache_probes = 1;
  EXPECT_STREQ(CacheOutcome(stats), "miss");
  stats.cache_stale_drops = 1;
  EXPECT_STREQ(CacheOutcome(stats), "stale");
  stats.cache_param_rejects = 1;
  EXPECT_STREQ(CacheOutcome(stats), "reject");
  stats.plan_from_cache = true;
  EXPECT_STREQ(CacheOutcome(stats), "exact");
  stats.cache_param_hits = 1;
  EXPECT_STREQ(CacheOutcome(stats), "param");
}

// ---------------------------------------------------------------------------
// The slow-query-log record.

TEST(DiagSlowLog, RecordCarriesBreakdownAndRowEstimates) {
  DiagService diag(DiagOptions{});
  QueryDiag qd;
  qd.query_text = "Join(A, B)";
  qd.latency_ms = 42.5;
  qd.max_qerror = 8;
  qd.est_rows = 100;
  qd.actual_rows = 1000;
  // Depth-0 search spans plus a nested span that must NOT be counted.
  common::TraceEvent expand;
  expand.kind = common::TraceEventKind::kGroupExpand;
  expand.dur_ns = 2'000'000;
  common::TraceEvent optimize;
  optimize.kind = common::TraceEventKind::kGroupOptimize;
  optimize.dur_ns = 3'000'000;
  common::TraceEvent nested = optimize;
  nested.depth = 1;
  common::TraceEvent exec;
  exec.kind = common::TraceEventKind::kExecQuery;
  exec.dur_ns = 5'000'000;
  qd.trace_slice = {expand, optimize, nested, exec};
  qd.trace_dropped = 7;

  const std::string rec =
      diag.SlowLogRecord(DiagTrigger::kQError, qd, "some/bundle");
  EXPECT_NE(rec.find("\"fingerprint\":\"" +
                     common::HexEncode(DiagService::Fingerprint(
                         qd.query_text)) +
                     "\""),
            std::string::npos)
      << rec;
  EXPECT_NE(rec.find("\"trigger\":\"qerror\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"latency_ms\":42.5"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"cache\":\"off\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"breakdown_ms\":{\"expand\":2,\"optimize\":3,"
                     "\"exec\":5}"),
            std::string::npos)
      << rec;
  EXPECT_NE(rec.find("\"est_rows\":100"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"actual_rows\":1000"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"max_qerror\":8"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"trace_events\":4"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"trace_dropped\":7"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"bundle\":\"some/bundle\""), std::string::npos) << rec;
}

// ---------------------------------------------------------------------------
// Report(): bundles, manifest completeness, caps.

TEST(DiagReport, NoneTriggerIsANoop) {
  std::ostringstream log;
  DiagOptions opt;
  opt.slow_log = &log;
  DiagService diag(opt);
  EXPECT_EQ(diag.Report(DiagTrigger::kNone, QueryDiag{}), "");
  EXPECT_EQ(diag.reports(), 0u);
  EXPECT_TRUE(log.str().empty());
}

TEST(DiagReport, BundleManifestListsExactlyTheWrittenMembers) {
  TempDir tmp("manifest");
  common::MetricsRegistry registry;
  registry.GetCounter("diag_test_total")->Inc(1);
  std::ostringstream log;
  DiagOptions opt;
  opt.diag_dir = tmp.path().string();
  opt.slow_log = &log;
  opt.registry = &registry;
  opt.flags = "--query 7 --slow-ms 1";
  opt.seed = 42;
  DiagService diag(opt);

  registry.GetCounter("diag_test_total")->Inc(5);  // Lands in the delta.
  QueryDiag qd;
  qd.query_text = "Join(A, B)";
  qd.latency_ms = 9;
  qd.provenance = "winner: NL_join\n";
  qd.memo_dot = "digraph memo {}\n";
  qd.analyze_text = "NL_join rows=3\n";
  qd.analyze_json = "{\"alg\":\"NL_join\"}\n";
  qd.feedback_json = "{\"key\":\"00\"}\n";
  const std::string dir = diag.Report(DiagTrigger::kSlowFixed, qd);
  ASSERT_FALSE(dir.empty());
  EXPECT_EQ(diag.bundles_written(), 1u);

  // The directory is <fingerprint>-<seq>.
  EXPECT_EQ(fs::path(dir).filename().string(),
            common::HexEncode(DiagService::Fingerprint(qd.query_text)) +
                "-0");

  std::ifstream mf(fs::path(dir) / "manifest.json");
  ASSERT_TRUE(mf.good());
  std::ostringstream mbuf;
  mbuf << mf.rdbuf();
  const std::string manifest = mbuf.str();
  EXPECT_NE(manifest.find("\"trigger\":\"slow_fixed\""), std::string::npos);
  EXPECT_NE(manifest.find("\"flags\":\"--query 7 --slow-ms 1\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(manifest.find("\"build\":{"), std::string::npos);
  // Every member the manifest lists exists on disk, and every file on
  // disk is listed (completeness both ways).
  size_t listed = 0;
  for (const char* m :
       {"query.txt", "metrics_delta.json", "provenance.txt", "memo.dot",
        "analyze.txt", "analyze.json", "feedback.json", "slow_record.json",
        "manifest.json"}) {
    EXPECT_NE(manifest.find("\"" + std::string(m) + "\""), std::string::npos)
        << "manifest does not list " << m << ": " << manifest;
    EXPECT_TRUE(fs::exists(fs::path(dir) / m)) << m;
    ++listed;
  }
  size_t on_disk = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++on_disk;
  }
  EXPECT_EQ(on_disk, listed);
  // No rules were configured, so no trace.json — and the manifest must
  // not claim one.
  EXPECT_EQ(manifest.find("trace.json"), std::string::npos);
  // The metrics delta covers the window since arming.
  std::ifstream df(fs::path(dir) / "metrics_delta.json");
  std::ostringstream dbuf;
  dbuf << df.rdbuf();
  EXPECT_NE(dbuf.str().find(
                "{\"metric\":\"diag_test_total\",\"type\":\"counter\","
                "\"delta\":5,\"total\":6}"),
            std::string::npos)
      << dbuf.str();
  // The slow-log line names the bundle.
  EXPECT_NE(log.str().find("\"bundle\":\"" + dir + "\""), std::string::npos);
}

TEST(DiagReport, MaxBundlesCapsDiskButNotTheLog) {
  TempDir tmp("cap");
  std::ostringstream log;
  DiagOptions opt;
  opt.diag_dir = tmp.path().string();
  opt.max_bundles = 1;
  opt.slow_log = &log;
  DiagService diag(opt);
  QueryDiag qd;
  qd.query_text = "Q";
  EXPECT_FALSE(diag.Report(DiagTrigger::kSlowFixed, qd).empty());
  EXPECT_TRUE(diag.Report(DiagTrigger::kSlowFixed, qd).empty());
  EXPECT_EQ(diag.bundles_written(), 1u);
  EXPECT_EQ(diag.reports(), 2u);
  // Both reports reached the log; the capped one with an empty bundle.
  size_t lines = 0;
  std::istringstream in(log.str());
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(log.str().find("\"bundle\":\"\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Coarse flight-recorder detail and the BatchOptimizer wiring.

class DiagOodbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(core::RuleSet prairie_rules, opt::BuildOodbPrairie());
    ASSERT_OK_AND_ASSIGN(rules_, p2v::Translate(prairie_rules, nullptr));
  }

  workload::Workload MakeQ(int qnum, int joins, uint64_t seed) {
    auto w = workload::MakeWorkload(
        *rules_->algebra, workload::PaperQuery(qnum, joins, seed));
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return std::move(*w);
  }

  std::shared_ptr<volcano::RuleSet> rules_;
};

TEST_F(DiagOodbTest, CoarseDetailKeepsSpinesDropsAttempts) {
  workload::Workload w = MakeQ(3, 2, 1);
  common::RingBufferSink sink(1 << 16);
  volcano::OptimizerOptions opts;
  opts.trace = &sink;
  opts.trace_detail = common::TraceDetail::kCoarse;
  volcano::Optimizer optimizer(rules_.get(), &w.catalog, opts);
  ASSERT_TRUE(optimizer.Optimize(*w.query).ok());
  size_t spines = 0;
  for (const common::TraceEvent& e : sink.Snapshot()) {
    switch (e.kind) {
      case common::TraceEventKind::kGroupExpand:
      case common::TraceEventKind::kGroupOptimize:
      case common::TraceEventKind::kWinnerSelected:
        ++spines;
        break;
      case common::TraceEventKind::kTransAttempt:
      case common::TraceEventKind::kImplAttempt:
      case common::TraceEventKind::kEnforcerAttempt:
      case common::TraceEventKind::kTransFire:
      case common::TraceEventKind::kPlanCosted:
      case common::TraceEventKind::kPrune:
      case common::TraceEventKind::kCycleGuard:
        ADD_FAILURE() << "coarse trace leaked kind "
                      << static_cast<int>(e.kind);
        break;
      default:
        break;
    }
  }
  EXPECT_GT(spines, 0u);
}

TEST_F(DiagOodbTest, BatchWiringReportsEverySlowQuery) {
  TempDir tmp("batch");
  std::ostringstream log;
  DiagOptions dopt;
  dopt.slow_ms = 1e-9;  // Every query is "slow": force the trigger path.
  dopt.diag_dir = tmp.path().string();
  dopt.max_bundles = 2;
  dopt.slow_log = &log;
  dopt.rules = rules_.get();
  DiagService diag(dopt);

  std::vector<workload::Workload> workloads;
  for (int q = 1; q <= 4; ++q) workloads.push_back(MakeQ(q, 2, 1));
  std::vector<volcano::BatchQuery> queries;
  for (const workload::Workload& w : workloads) {
    queries.push_back({w.query.get(), &w.catalog});
  }
  volcano::BatchOptions bopt;
  bopt.jobs = 2;
  bopt.diag = &diag;
  volcano::BatchOptimizer batch(rules_.get(), bopt);
  std::vector<volcano::BatchResult> results = batch.OptimizeAll(queries);
  for (const auto& r : results) {
    ASSERT_TRUE(r.plan.ok()) << r.plan.status().ToString();
  }

  EXPECT_EQ(diag.reports(), queries.size());
  EXPECT_EQ(diag.bundles_written(), 2u);  // Capped below the report count.
  size_t lines = 0;
  std::istringstream in(log.str());
  for (std::string line; std::getline(in, line);) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"trigger\":\"slow_fixed\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, queries.size());
  // Distinct query *trees* produce distinct fingerprints (TreeString
  // carries the descriptor annotations; plain operator names would
  // collide). Paper queries pair up across environments — Q1/Q2 share a
  // tree and differ only in the catalog — so the expectation is the
  // number of distinct TreeStrings, not of queries.
  std::set<std::string> want_fps;
  for (const volcano::BatchQuery& q : queries) {
    want_fps.insert(common::HexEncode(DiagService::Fingerprint(
        q.tree->TreeString(*rules_->algebra))));
  }
  EXPECT_GT(want_fps.size(), 1u);
  std::set<std::string> fps;
  size_t pos = 0;
  const std::string text = log.str();
  while ((pos = text.find("\"fingerprint\":\"", pos)) != std::string::npos) {
    pos += 15;
    fps.insert(text.substr(pos, 16));
  }
  EXPECT_EQ(fps, want_fps);
  // The diag-armed batch kept a flight recorder even though no batch
  // trace was requested — but trace_events() stays empty (it means "the
  // trace the caller asked for").
  EXPECT_NE(text.find("\"trace_events\":"), std::string::npos);
  EXPECT_EQ(text.find("\"trace_events\":0,"), std::string::npos);
  EXPECT_TRUE(batch.trace_events().empty());
}

}  // namespace
}  // namespace prairie
