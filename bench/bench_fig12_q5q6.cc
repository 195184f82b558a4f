// Figure 12: query optimization times for Q5 and Q6 (expression E3 — a
// conjunctive SELECT over the N-way join), Prairie vs. Volcano. With
// indices on the selection attributes (Q6), index scans enter the plan
// space. The paper reached only 3-way joins here.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  auto pair = prairie::bench::BuildOodbPair();
  if (!pair.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  int max_joins = prairie::bench::EnvInt("PRAIRIE_MAX_JOINS", 5);
  prairie::bench::JsonWriter json("fig12_q5q6");
  prairie::bench::RunFigure(
      "Figure 12: optimization time for Q5 / Q6 (E3, SELECT over E1)",
      *pair, /*qa=*/5, /*qb=*/6, max_joins, /*per_point_budget_s=*/15.0, &json);
  std::printf(
      "Paper shape check: SELECT interactions blow up the search space\n"
      "(compare Figure 10); the index matters only for Q6 plan costs;\n"
      "Prairie ~= Volcano.\n");
  return 0;
}
