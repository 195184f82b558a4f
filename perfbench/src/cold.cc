// The cold workloads: one client, a fresh Optimizer per request, no plan
// cache, default OptimizerOptions (serial, pruning on).
//
//   paper_cold  the paper's Q1-Q8 at 3 joins over a seeded pool of small
//               catalogs; every request also executes its plan.
//   bigjoin     E1 join graphs chain/12, star/8 and clique/6; optimize only.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/builder.h"
#include "optimizers/executors.h"
#include "optimizers/reference.h"
#include "optimizers/volcano_hand.h"
#include "reference.h"
#include "spans.h"
#include "volcano/engine.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

namespace exec = prairie::exec;
namespace volcano = prairie::volcano;
namespace workload = prairie::workload;
using prairie::common::Result;
using prairie::common::Status;

constexpr int kPaperJoins = 3;
constexpr int kPaperCatalogs = 2;  // catalogs per paper query
// Join attributes have max(2, card/10) and max(2, card/20) distinct
// values, so a 3-join E1/E2 result has about card^4/8 rows: 16-256 would
// mean results of 10^5 rows and more, whose size (and so the peak resident
// set) swings with the seed. 8-12 keeps every result under ~3k rows.
constexpr int64_t kPaperMinCard = 8;
constexpr int64_t kPaperMaxCard = 12;
constexpr int kBigjoinCatalogs = 3;  // catalogs per join shape

struct ShapeDef {
  workload::JoinShape shape;
  int relations;
  const char* name;
};
constexpr ShapeDef kShapes[] = {
    {workload::JoinShape::kChain, 12, "chain"},
    {workload::JoinShape::kStar, 8, "star"},
    {workload::JoinShape::kClique, 6, "clique"},
};

struct Instance {
  std::string metric;  ///< Per-family median metric, e.g. "paper.Q7_ms".
  workload::QuerySpec spec;
  workload::Workload load;
  std::unique_ptr<exec::Database> db;  ///< Set when requests execute.
  bool ref_ok = false;
  double ref_cost = 0;
  ResultDigest ref_result;
};

struct Setup {
  LoadedSpec spec;
  exec::ExecutorRegistry executors;
  std::vector<Instance> instances;
  double gen_ms = 0;
};

Result<std::unique_ptr<Setup>> MakeSetup(bool paper, uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  PRAIRIE_ASSIGN_OR_RETURN(setup->spec, LoadOodbSpec());
  const prairie::algebra::Algebra& algebra = *setup->spec.rules->algebra;
  const uint64_t t0 = NowNs();
  if (paper) {
    PRAIRIE_RETURN_NOT_OK(
        prairie::opt::RegisterStandardExecutors(&setup->executors));
    for (int q = 1; q <= 8; ++q) {
      for (int j = 0; j < kPaperCatalogs; ++j) {
        Instance inst;
        inst.metric = "paper.Q" + std::to_string(q) + "_ms";
        inst.spec = workload::PaperQuery(q, kPaperJoins, SubSeed(seed, q, j));
        inst.spec.min_card = kPaperMinCard;
        inst.spec.max_card = kPaperMaxCard;
        PRAIRIE_ASSIGN_OR_RETURN(inst.load,
                                 workload::MakeWorkload(algebra, inst.spec));
        PRAIRIE_ASSIGN_OR_RETURN(
            exec::Database db,
            workload::MakeDatabase(inst.load.catalog,
                                   SubSeed(seed, q, 100 + j)));
        inst.db = std::make_unique<exec::Database>(std::move(db));
        setup->instances.push_back(std::move(inst));
      }
    }
  } else {
    for (size_t k = 0; k < std::size(kShapes); ++k) {
      for (int j = 0; j < kBigjoinCatalogs; ++j) {
        Instance inst;
        inst.metric = std::string("bigjoin.") + kShapes[k].name + "_ms";
        inst.spec = workload::PaperQuery(1, kShapes[k].relations - 1,
                                         SubSeed(seed, 200 + k, j));
        inst.spec.shape = kShapes[k].shape;
        PRAIRIE_ASSIGN_OR_RETURN(inst.load,
                                 workload::MakeWorkload(algebra, inst.spec));
        setup->instances.push_back(std::move(inst));
      }
    }
  }
  setup->gen_ms = static_cast<double>(NowNs() - t0) / 1e6;
  return setup;
}

/// Per instance: the hand-coded Volcano optimizer's plan cost and, for
/// executed workloads, the naive evaluator's result digest.
Status ComputeReferences(Setup* setup) {
  std::shared_ptr<volcano::RuleSet> hand;  // built once per worker process
  const prairie::algebra::Algebra& algebra = *setup->spec.rules->algebra;
  auto work = [&](size_t i) -> std::string {
    if (hand == nullptr) {
      auto built = prairie::opt::BuildOodbVolcano();
      if (!built.ok()) return "error " + built.status().ToString();
      hand = *built;
    }
    const Instance& inst = setup->instances[i];
    auto wh = workload::MakeWorkload(*hand->algebra, inst.spec);
    if (!wh.ok()) return "error " + wh.status().ToString();
    volcano::Optimizer optimizer(hand.get(), &wh->catalog);
    auto plan = optimizer.Optimize(*wh->query);
    if (!plan.ok()) return "error " + plan.status().ToString();
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", plan->cost);
    std::string line = buf;
    if (inst.db != nullptr) {
      auto ref = prairie::opt::EvaluateLogical(*inst.load.query, algebra,
                                               *inst.db);
      if (!ref.ok()) return "error " + ref.status().ToString();
      const ResultDigest d = DigestResult(ref->rows, ref->schema);
      std::snprintf(buf, sizeof(buf), " %llu %llu",
                    static_cast<unsigned long long>(d.rows),
                    static_cast<unsigned long long>(d.hash));
      line += buf;
    }
    return line;
  };
  PRAIRIE_ASSIGN_OR_RETURN(
      std::vector<std::string> lines,
      ForkMap(setup->instances.size(), kReferenceProcs, work));
  for (size_t i = 0; i < lines.size(); ++i) {
    Instance& inst = setup->instances[i];
    if (lines[i].rfind("error", 0) == 0) {
      std::fprintf(stderr, "perfbench: no reference for %s: %s\n",
                   inst.metric.c_str(), lines[i].c_str());
      continue;  // its requests will count as failed
    }
    unsigned long long rows = 0;
    unsigned long long hash = 0;
    const int fields = std::sscanf(lines[i].c_str(), "%lf %llu %llu",
                                   &inst.ref_cost, &rows, &hash);
    inst.ref_ok = fields == (inst.db != nullptr ? 3 : 1);
    inst.ref_result = ResultDigest{rows, hash};
  }
  return Status::OK();
}

/// \brief One request's measurements and the counters its search returned.
struct Sample {
  size_t instance = 0;
  bool ok = false;
  double cost = 0;
  uint64_t construct_ns = 0;
  uint64_t optimize_ns = 0;
  uint64_t destroy_ns = 0;
  uint64_t to_expr_ns = 0;
  uint64_t build_ns = 0;
  uint64_t run_ns = 0;
  uint64_t wall_ns = 0;
  size_t rows = 0;
  volcano::OptimizerStats stats;
  size_t arena_bytes = 0;

  double opt_ms() const {
    return static_cast<double>(construct_ns + optimize_ns) / 1e6;
  }
  double exec_ms() const {
    return static_cast<double>(to_expr_ns + build_ns + run_ns) / 1e6;
  }
};

/// Optimizes (and, with a database, executes) one instance. The request
/// span covers constructor + Optimize + teardown + plan hand-off + build +
/// run; checking the outcome happens after it closes.
Sample RunRequest(const Setup& setup, size_t index, Tracer* tracer,
                  uint32_t id) {
  const Instance& inst = setup.instances[index];
  const volcano::RuleSet* rules = setup.spec.rules.get();
  const prairie::algebra::Algebra& algebra = *rules->algebra;
  Sample s;
  s.instance = index;
  Result<std::vector<exec::Row>> rows =
      Status::ExecError("plan was not executed");
  exec::RowSchema schema;
  Phase request(tracer, "request", id);

  Phase construct(tracer, "engine.construct", id);
  auto optimizer =
      std::make_unique<volcano::Optimizer>(rules, &inst.load.catalog);
  s.construct_ns = construct.Stop();

  Phase optimize(tracer, "engine.optimize", id);
  Result<volcano::Plan> plan = optimizer->Optimize(*inst.load.query);
  s.optimize_ns = optimize.Stop();
  s.stats = optimizer->stats();
  s.arena_bytes = optimizer->memo().arena_bytes();

  Phase destroy(tracer, "engine.destroy", id);
  optimizer.reset();
  s.destroy_ns = destroy.Stop();

  prairie::algebra::ExprPtr expr;
  Result<exec::IterPtr> iter = Status::ExecError("plan was not built");
  if (plan.ok() && inst.db != nullptr) {
    Phase to_expr(tracer, "exec.to_expr", id);
    expr = plan->root->ToExpr(algebra);
    s.to_expr_ns = to_expr.Stop();

    Phase build(tracer, "exec.build", id);
    iter = setup.executors.Build(*expr, algebra, *inst.db);
    s.build_ns = build.Stop();

    if (iter.ok()) {
      Phase run(tracer, "exec.run", id);
      rows = exec::CollectAll(iter->get());
      s.run_ns = run.Stop();
      schema = (*iter)->schema();
    }
  }
  s.wall_ns = request.Stop();

  s.ok = plan.ok() && inst.ref_ok && CostMatches(plan->cost, inst.ref_cost);
  if (plan.ok()) s.cost = plan->cost;
  if (inst.db != nullptr) {
    s.ok = s.ok && rows.ok() &&
           DigestResult(*rows, schema) == inst.ref_result;
    if (rows.ok()) s.rows = rows->size();
  }
  return s;
}

/// Maps the request ids on traced spans back to pool instances.
struct Trace {
  Tracer tracer{true};
  std::vector<size_t> instance_of;  ///< Indexed by request id.

  void Bind(uint32_t id, size_t instance) {
    if (instance_of.size() <= id) instance_of.resize(id + 1);
    instance_of[id] = instance;
  }
};

/// The ExpandOnly closure of one instance on a fresh optimizer: a traced
/// side measurement taken right after the instance's traced request (so
/// both see the machine at the same speed), outside the request span.
bool MeasureClosure(const Setup& setup, size_t index, Trace* trace,
                    uint32_t id) {
  const Instance& inst = setup.instances[index];
  auto optimizer = std::make_unique<volcano::Optimizer>(
      setup.spec.rules.get(), &inst.load.catalog);
  trace->Bind(id, index);
  Phase closure(&trace->tracer, "engine.closure", id);
  const bool ok = optimizer->ExpandOnly(*inst.load.query).ok();
  closure.Stop();
  return ok;
}

struct Laps {
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
};

/// Runs whole laps over the pool, so every instance is sampled equally
/// often, until the next lap would pass `budget_s`. With a trace, laps
/// alternate untraced and traced (each traced request followed by its
/// closure) and come in pairs, so both kinds get the same number of
/// samples. `between` runs after each lap.
Status RunLaps(const Setup& setup, const std::vector<size_t>& order,
               double budget_s, Trace* trace,
               const std::function<Status()>& between, Report* report,
               Laps* laps) {
  Tracer off(false);
  uint32_t next_id = 0;
  const uint64_t t0 = NowNs();
  for (int lap = 1;; ++lap) {
    const bool traced = trace != nullptr && lap % 2 == 0;
    for (size_t index : order) {
      const uint32_t id = next_id++;
      Sample s = RunRequest(setup, index, traced ? &trace->tracer : &off, id);
      if (traced) {
        trace->Bind(id, index);
        report->Count(MeasureClosure(setup, index, trace, next_id++));
      }
      report->Count(s.ok);
      (traced ? laps->traced : laps->untraced).push_back(std::move(s));
    }
    PRAIRIE_RETURN_NOT_OK(between());
    const int step = trace != nullptr ? 2 : 1;  // traced runs end in pairs
    if (lap % step != 0) continue;
    const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
    if (elapsed * (lap + step) / lap > budget_s) break;
  }
  return Status::OK();
}

/// Per instance, the minimum of `field` over that instance's samples.
template <typename F>
std::vector<double> BestPerInstance(const std::vector<Sample>& samples,
                                    size_t n, F field) {
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  for (const Sample& s : samples) {
    best[s.instance] =
        std::min(best[s.instance], static_cast<double>(field(s)));
  }
  return best;
}

/// Mean over instances of each instance's smallest self time (ns) in the
/// spans named `name`.
double MeanBestSelfNs(const Trace& trace, const Ledger& ledger, size_t n,
                      const char* name) {
  const std::vector<Span>& spans = trace.tracer.spans();
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    const size_t inst = trace.instance_of[spans[i].request];
    best[inst] = std::min(best[inst], ledger.self_ns[i]);
  }
  std::vector<double> found;
  for (double b : best) {
    if (std::isfinite(b)) found.push_back(b);
  }
  return Mean(found);
}

template <typename F>
double MeanOf(const std::vector<Sample>& samples, F field) {
  double sum = 0;
  for (const Sample& s : samples) sum += static_cast<double>(field(s));
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

void ReportLayers(const Setup& setup, const Laps& laps, const Trace& trace,
                  const Ledger& ledger, Report* report) {
  const size_t n = setup.instances.size();
  const std::vector<Sample>& untraced = laps.untraced;
  using S = const Sample&;
  // Counters repeat exactly for a given seed: per-request means.
  auto mean = [&](auto field) { return MeanOf(untraced, field); };
  const double attempts = mean([](S s) { return s.stats.trans_attempts; });
  const double fired = mean([](S s) { return s.stats.trans_fired; });
  const double lookups = mean([](S s) { return s.stats.desc_lookups; });
  const double hits = mean([](S s) { return s.stats.desc_hits; });
  report->Metric("engine.trans_attempts", attempts);
  report->Metric("engine.trans_fired", fired);
  report->Metric("engine.trans_yield", attempts > 0 ? fired / attempts : 0);
  report->Metric("engine.impl_attempts",
                 mean([](S s) { return s.stats.impl_attempts; }));
  report->Metric("engine.plans_costed",
                 mean([](S s) { return s.stats.plans_costed; }));
  report->Metric("engine.prunes", mean([](S s) { return s.stats.prunes; }));
  report->Metric("memo.groups", mean([](S s) { return s.stats.groups; }));
  report->Metric("memo.mexprs", mean([](S s) { return s.stats.mexprs; }));
  report->Metric("memo.arena_kb",
                 mean([](S s) { return s.arena_bytes; }) / 1024.0);
  report->Metric("intern.lookups", lookups);
  report->Metric("intern.hit_rate", lookups > 0 ? hits / lookups : 0);

  // Per-family medians of the instances' optimize latency.
  const std::vector<double> opt = BestPerInstance(untraced, n, [](S s) {
    return s.opt_ms();
  });
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && setup.instances[i].metric == setup.instances[i - 1].metric) {
      continue;
    }
    std::vector<double> family;
    for (size_t j = i; j < n && setup.instances[j].metric ==
                                    setup.instances[i].metric;
         ++j) {
      family.push_back(opt[j]);
    }
    report->Metric(setup.instances[i].metric, Median(family));
  }

  // Chosen plan cost over the pool, one value per instance.
  std::vector<double> cost(n, 1);
  for (const Sample& s : untraced) cost[s.instance] = s.cost;
  double log_sum = 0;
  for (double c : cost) log_sum += std::log(std::max(c, 1e-300));
  report->Metric("plan.cost_geomean",
                 std::exp(log_sum / static_cast<double>(n)));

  if (setup.instances[0].db != nullptr) {
    const std::vector<double> exec_ms =
        BestPerInstance(untraced, n, [](S s) { return s.exec_ms(); });
    report->Metric("exec.ms_p50", Percentile(exec_ms, 50));
    report->Metric("exec.ms_p90", Percentile(exec_ms, 90));
    report->Metric("exec.rows", mean([](S s) { return s.rows; }));
  }

  // Layer self times from the traced laps.
  auto self = [&](const char* name) {
    return MeanBestSelfNs(trace, ledger, n, name);
  };
  const double optimize_ms = self("engine.optimize") / 1e6;
  const double closure_ms = self("engine.closure") / 1e6;
  report->Metric("engine.construct_us", self("engine.construct") / 1e3);
  report->Metric("engine.optimize_ms", optimize_ms);
  report->Metric("engine.closure_ms", closure_ms);
  report->Metric("engine.costing_ms", optimize_ms - closure_ms);
  report->Metric("engine.destroy_us", self("engine.destroy") / 1e3);
  report->Metric("exec.to_expr_us", self("exec.to_expr") / 1e3);
  report->Metric("exec.build_us", self("exec.build") / 1e3);
  report->Metric("exec.run_ms", self("exec.run") / 1e6);
  auto best_wall = [&](const std::vector<Sample>& samples) {
    return Mean(BestPerInstance(samples, n, [](S s) { return s.wall_ns; }));
  };
  report->Metric("trace.overhead_pct",
                 (best_wall(laps.traced) / best_wall(untraced) - 1) * 100);
}

Result<std::unique_ptr<Setup>> TimedSetup(bool paper, uint64_t seed,
                                          SetupTimes* times) {
  const uint64_t t0 = NowNs();
  PRAIRIE_ASSIGN_OR_RETURN(std::unique_ptr<Setup> setup,
                           MakeSetup(paper, seed));
  times->Record(t0, setup->spec, setup->gen_ms, 0);
  return setup;
}

}  // namespace

Status RunCold(const RunConfig& config, bool paper, Report* report) {
  SetupTimes times;
  PRAIRIE_ASSIGN_OR_RETURN(std::unique_ptr<Setup> setup,
                           TimedSetup(paper, config.seed, &times));
  PRAIRIE_RETURN_NOT_OK(ComputeReferences(setup.get()));
  // Further set-up repetitions run between laps, so they sample the
  // machine's speed across the run; each is discarded.
  auto another_setup = [&]() -> Status {
    if (times.total_s.size() >= kSetupReps) return Status::OK();
    return TimedSetup(paper, config.seed, &times).status();
  };

  std::vector<size_t> order(setup->instances.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  prairie::common::Rng rng(SubSeed(config.seed, 300));
  rng.Shuffle(&order);

  Laps laps;
  if (!config.trace) {
    PRAIRIE_RETURN_NOT_OK(RunLaps(*setup, order, config.seconds, nullptr,
                                  another_setup, report, &laps));
    while (times.total_s.size() < kSetupReps) {
      PRAIRIE_RETURN_NOT_OK(another_setup());
    }
    const size_t n = setup->instances.size();
    using S = const Sample&;
    const std::vector<double> opt =
        BestPerInstance(laps.untraced, n, [](S s) { return s.opt_ms(); });
    double wall_s = 0;
    for (double ns : BestPerInstance(laps.untraced, n,
                                     [](S s) { return s.wall_ns; })) {
      wall_s += ns / 1e9;
    }
    report->Metric("setup_s", Min(times.total_s));
    report->Metric("queries_per_s", static_cast<double>(n) / wall_s);
    report->Metric("opt_ms_p50", Percentile(opt, 50));
    report->Metric("opt_ms_p90", Percentile(opt, 90));
    report->Metric("opt_ms_p99", Percentile(opt, 99));
    report->Metric("peak_rss_mb", PeakRssMb());
    std::printf("%s: %zu requests, %zu laps over %zu instances\n",
                config.workload.c_str(), laps.untraced.size(),
                laps.untraced.size() / n, n);
    return Status::OK();
  }

  Trace trace;
  PRAIRIE_RETURN_NOT_OK(RunLaps(*setup, order, config.seconds, &trace,
                                another_setup, report, &laps));
  while (times.total_s.size() < kSetupReps) {
    PRAIRIE_RETURN_NOT_OK(another_setup());
  }
  const Ledger ledger = Analyze(trace.tracer.spans());
  ReportLedger(ledger, report);
  report->Metric("dsl.parse_ms", Min(times.parse_ms));
  report->Metric("p2v.translate_ms", Min(times.translate_ms));
  report->Metric("workload.gen_ms", Min(times.gen_ms));
  ReportLayers(*setup, laps, trace, ledger, report);
  if (!config.spans_out.empty()) {
    PRAIRIE_RETURN_NOT_OK(WriteSpans(trace.tracer.spans(), config.spans_out));
  }
  return Status::OK();
}

}  // namespace perfbench
