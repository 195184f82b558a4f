#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/relational.h"
#include "optimizers/volcano_hand.h"
#include "p2v/translator.h"

// Factories from the build-time generated translation units.
namespace prairie_generated {
prairie::common::Result<std::shared_ptr<prairie::volcano::RuleSet>>
BuildRelationalEmitted(std::shared_ptr<prairie::core::HelperRegistry>);
prairie::common::Result<std::shared_ptr<prairie::volcano::RuleSet>>
BuildOodbEmitted(std::shared_ptr<prairie::core::HelperRegistry>);
}  // namespace prairie_generated

namespace prairie::bench {

using common::Result;
using common::Status;

Result<OptimizerPair> BuildOodbPair() {
  OptimizerPair pair;
  PRAIRIE_ASSIGN_OR_RETURN(core::RuleSet prairie_rules,
                           opt::BuildOodbPrairie());
  PRAIRIE_ASSIGN_OR_RETURN(pair.generated,
                           p2v::Translate(prairie_rules, nullptr));
  PRAIRIE_ASSIGN_OR_RETURN(
      pair.emitted,
      prairie_generated::BuildOodbEmitted(opt::StandardHelpers()));
  PRAIRIE_ASSIGN_OR_RETURN(pair.hand, opt::BuildOodbVolcano());
  return pair;
}

Result<OptimizerPair> BuildRelationalPair() {
  OptimizerPair pair;
  PRAIRIE_ASSIGN_OR_RETURN(core::RuleSet prairie_rules,
                           opt::BuildRelationalPrairie());
  PRAIRIE_ASSIGN_OR_RETURN(pair.generated,
                           p2v::Translate(prairie_rules, nullptr));
  PRAIRIE_ASSIGN_OR_RETURN(
      pair.emitted,
      prairie_generated::BuildRelationalEmitted(opt::StandardHelpers()));
  PRAIRIE_ASSIGN_OR_RETURN(pair.hand, opt::BuildRelationalVolcano());
  return pair;
}

JsonWriter::JsonWriter(const std::string& bench_name) : bench_(bench_name) {
  const std::string path = "BENCH_" + bench_name + ".json";
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr) {
    std::fprintf(stderr, "warning: cannot open %s for writing\n",
                 path.c_str());
  }
}

JsonWriter::~JsonWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void JsonWriter::Record(const std::string& family, double wall_us,
                        size_t groups, size_t mexprs,
                        double intern_hit_rate) {
  if (f_ == nullptr) return;
  std::fprintf(f_,
               "{\"bench\":\"%s\",\"family\":\"%s\",\"wall_us\":%.3f,"
               "\"groups\":%zu,\"mexprs\":%zu,\"intern_hit_rate\":%.4f}\n",
               common::JsonEscape(bench_).c_str(),
               common::JsonEscape(family).c_str(), wall_us, groups, mexprs,
               intern_hit_rate);
  std::fflush(f_);
}

void JsonWriter::RecordRaw(const std::string& family, double wall_us,
                           const std::string& extra_json) {
  if (f_ == nullptr) return;
  std::fprintf(f_, "{\"bench\":\"%s\",\"family\":\"%s\",\"wall_us\":%.3f%s%s}\n",
               common::JsonEscape(bench_).c_str(),
               common::JsonEscape(family).c_str(), wall_us,
               extra_json.empty() ? "" : ",", extra_json.c_str());
  std::fflush(f_);
}

namespace {

/// Times one optimization of `w` by a fresh optimizer and records its
/// search statistics in `m`. Returns the wall time in seconds, or -1 with
/// `m->status` set on failure.
double TimeOptimize(const volcano::RuleSet& rules, const workload::Workload& w,
                    Measurement* m) {
  common::Stopwatch sw;
  volcano::Optimizer optimizer(&rules, &w.catalog);
  auto plan = optimizer.Optimize(*w.query);
  const double t = sw.ElapsedSeconds();
  if (!plan.ok()) {
    m->status = plan.status();
    return -1;
  }
  m->cost = plan->cost;
  m->groups = optimizer.stats().groups;
  m->mexprs = optimizer.stats().mexprs;
  m->intern_hit_rate = optimizer.stats().InternHitRate();
  m->trans_matched = optimizer.stats().NumTransMatched();
  m->impl_matched = optimizer.stats().NumImplMatched();
  return t;
}

}  // namespace

std::vector<Measurement> MeasureInterleaved(
    std::span<const volcano::RuleSet* const> rules, int qnum, int num_joins,
    int num_seeds, int repeats) {
  const size_t k = rules.size();
  std::vector<Measurement> out(k);
  std::vector<double> total(k, 0.0);
  for (int seed = 1; seed <= num_seeds; ++seed) {
    const workload::QuerySpec spec =
        workload::PaperQuery(qnum, num_joins, static_cast<uint64_t>(seed));
    std::vector<workload::Workload> ws;
    ws.reserve(k);
    for (size_t d = 0; d < k; ++d) {
      auto w = workload::MakeWorkload(*rules[d]->algebra, spec);
      if (!w.ok()) {
        out[d].status = w.status();
        return out;
      }
      ws.push_back(std::move(*w));
    }
    // Per instance: minimum over repeats (robust against scheduler
    // noise); across instances: the mean, as in the paper. Each round
    // runs every rule set once, starting one further along each time, so
    // a slow phase of the host lands on all of them alike.
    std::vector<double> best(k, -1.0);
    for (int rep = 0; rep < repeats; ++rep) {
      for (size_t j = 0; j < k; ++j) {
        const size_t d = (static_cast<size_t>(seed + rep) + j) % k;
        const double t = TimeOptimize(*rules[d], ws[d], &out[d]);
        if (t < 0) return out;
        if (best[d] < 0 || t < best[d]) best[d] = t;
      }
    }
    for (size_t d = 0; d < k; ++d) total[d] += best[d];
  }
  for (size_t d = 0; d < k; ++d) out[d].seconds = total[d] / num_seeds;
  return out;
}

Measurement MeasureQuery(const volcano::RuleSet& rules, int qnum,
                         int num_joins, int num_seeds, int repeats) {
  const volcano::RuleSet* const one[] = {&rules};
  return MeasureInterleaved(one, qnum, num_joins, num_seeds, repeats)[0];
}

void RunFigure(const std::string& title, const OptimizerPair& pair, int qa,
               int qb, int max_joins, double per_point_budget_s,
               JsonWriter* json) {
  std::printf("%s\n", title.c_str());
  std::printf(
      "(mean per-query optimization time over 5 cardinality seeds, the\n"
      " three deployments timed in rotating interleaved rounds;\n"
      " 'interp' = P2V with interpreted actions, 'emitted' = P2V-generated\n"
      " C++ compiled at build time, 'hand' = hand-coded Volcano)\n\n");
  std::printf("%7s |", "#joins");
  for (int q : {qa, qb}) {
    std::printf(" %11s %11s %11s %7s |",
                ("Q" + std::to_string(q) + " interp").c_str(), "emitted",
                "hand", "em/hand");
  }
  std::printf("\n%s\n", std::string(103, '-').c_str());
  bool a_alive = true;
  bool b_alive = true;
  for (int n = 1; n <= max_joins && (a_alive || b_alive); ++n) {
    std::printf("%7d |", n);
    for (int q : {qa, qb}) {
      bool& alive = (q == qa) ? a_alive : b_alive;
      if (!alive) {
        std::printf(" %11s %11s %11s %7s |", "-", "-", "-", "-");
        continue;
      }
      Measurement probe = MeasureQuery(*pair.generated, q, n, 1, 1);
      int repeats = probe.ok() && probe.seconds > 0
                        ? static_cast<int>(0.02 / probe.seconds)
                        : 1;
      if (probe.ok() && probe.seconds < 0.25) repeats = std::max(repeats, 3);
      if (repeats < 1) repeats = 1;
      if (repeats > 200) repeats = 200;
      const volcano::RuleSet* const deployments[] = {
          pair.generated.get(), pair.emitted.get(), pair.hand.get()};
      const std::vector<Measurement> ms =
          MeasureInterleaved(deployments, q, n, 5, repeats);
      const Measurement& mi = ms[0];
      const Measurement& me = ms[1];
      const Measurement& mh = ms[2];
      if (!mi.ok() || !me.ok() || !mh.ok()) {
        std::printf(" %11s %11s %11s %7s |", "exhausted", "-", "-", "-");
        alive = false;
        continue;
      }
      if (json != nullptr) {
        const std::string base = "Q" + std::to_string(q) + "/n" +
                                 std::to_string(n) + "/";
        json->Record(base + "interp", mi);
        json->Record(base + "emitted", me);
        json->Record(base + "hand", mh);
      }
      std::printf(" %9.3fms %9.3fms %9.3fms %6.2fx |", mi.seconds * 1e3,
                  me.seconds * 1e3, mh.seconds * 1e3,
                  me.seconds / std::max(mh.seconds, 1e-12));
      if (mi.seconds * 5 > per_point_budget_s) alive = false;
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf(
      "\nExpectation (paper): the generated optimizer is within ~5%% of the\n"
      "hand-coded one — compare the 'emitted' and 'hand' columns (the\n"
      "'interp' column shows the cost of skipping code generation).\n\n");
}

int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  if (v == nullptr) return def;
  int parsed = std::atoi(v);
  return parsed > 0 ? parsed : def;
}

Result<PairTiming> TimePairs(int pairs, common::FunctionRef<Status()> base,
                             common::FunctionRef<Status()> layer) {
  constexpr double kMinRegionS = 0.004;
  PairTiming out;
  int inner = 1;
  const auto time = [&inner](common::FunctionRef<Status()> f,
                             double* seconds) -> Status {
    common::Stopwatch sw;
    for (int i = 0; i < inner; ++i) PRAIRIE_RETURN_NOT_OK(f());
    *seconds = sw.ElapsedSeconds() / inner;
    return Status::OK();
  };
  for (int pair = 0; pair <= pairs; ++pair) {
    double t_base = 0;
    PRAIRIE_RETURN_NOT_OK(time(base, &t_base));
    if (pair == 0) {
      inner = static_cast<int>(
          std::clamp(kMinRegionS / std::max(t_base, 1e-9), 1.0, 64.0));
    }
    double t_layer = 0;
    PRAIRIE_RETURN_NOT_OK(time(layer, &t_layer));
    if (pair == 0) continue;  // Warmup.
    if (out.base_s < 0 || t_base < out.base_s) out.base_s = t_base;
    if (out.layer_s < 0 || t_layer < out.layer_s) out.layer_s = t_layer;
    out.ratios.push_back(t_layer / t_base);
  }
  return out;
}

double MedianOverheadPct(std::vector<double> ratios) {
  if (ratios.empty()) return 0;
  std::sort(ratios.begin(), ratios.end());
  return 100.0 * (ratios[ratios.size() / 2] - 1.0);
}

}  // namespace prairie::bench
