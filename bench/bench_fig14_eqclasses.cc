// Figure 14: number of equivalence classes vs. number of joins for the
// four expression templates E1..E4. The counts are a property of the
// logical search space, so they are identical for the Prairie-generated
// and hand-coded optimizers (the paper makes the same remark).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/stopwatch.h"

using prairie::bench::BuildOodbPair;
using prairie::bench::EnvInt;

int main() {
  auto pair = BuildOodbPair();
  if (!pair.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  const auto& rules = *pair->generated;

  int max_per_expr[5] = {0, EnvInt("PRAIRIE_MAX_JOINS_E1", 8),
                         EnvInt("PRAIRIE_MAX_JOINS_E2", 8),
                         EnvInt("PRAIRIE_MAX_JOINS_E3", 5),
                         EnvInt("PRAIRIE_MAX_JOINS_E4", 4)};
  std::printf(
      "Figure 14: equivalence classes vs. number of joins (E1..E4)\n\n");
  std::printf("%7s | %10s %10s %10s %10s\n", "#joins", "E1", "E2", "E3",
              "E4");
  std::printf("%s\n", std::string(55, '-').c_str());
  int max_n = 0;
  for (int e = 1; e <= 4; ++e) max_n = std::max(max_n, max_per_expr[e]);
  prairie::bench::JsonWriter json("fig14_eqclasses");
  for (int n = 1; n <= max_n; ++n) {
    std::printf("%7d |", n);
    for (int e = 1; e <= 4; ++e) {
      if (n > max_per_expr[e]) {
        std::printf(" %10s", "-");
        continue;
      }
      prairie::workload::QuerySpec spec;
      spec.expr = static_cast<prairie::workload::ExprKind>(e);
      spec.num_joins = n;
      spec.seed = 1;
      auto w = prairie::workload::MakeWorkload(*rules.algebra, spec);
      if (!w.ok()) {
        std::printf(" %10s", "err");
        continue;
      }
      prairie::volcano::Optimizer optimizer(&rules, &w->catalog);
      prairie::common::Stopwatch sw;
      auto groups = optimizer.ExpandOnly(*w->query);
      double wall_us = sw.ElapsedSeconds() * 1e6;
      if (!groups.ok()) {
        std::printf(" %10s", "exhausted");
        max_per_expr[e] = 0;
        continue;
      }
      json.Record("E" + std::to_string(e) + "/n" + std::to_string(n),
                  wall_us, *groups, optimizer.stats().mexprs,
                  optimizer.stats().InternHitRate());
      std::printf(" %10zu", *groups);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper shape check: growth rate increases with expression\n"
      "complexity; SELECT (E3/E4) interacts with many operators and\n"
      "dramatically enlarges the space, which is why the paper's E3/E4\n"
      "sweeps stop at 3-way joins.\n");
  return 0;
}
