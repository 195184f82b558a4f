// Figure 13: query optimization times for Q7 and Q8 (expression E4 — the
// most complex: SELECT over MAT-augmented N-way joins). The paper reached
// only 3-way joins before exhausting virtual memory.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  auto pair = prairie::bench::BuildOodbPair();
  if (!pair.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  int max_joins = prairie::bench::EnvInt("PRAIRIE_MAX_JOINS", 4);
  prairie::bench::JsonWriter json("fig13_q7q8");
  prairie::bench::RunFigure(
      "Figure 13: optimization time for Q7 / Q8 (E4, SELECT over E2)",
      *pair, /*qa=*/7, /*qb=*/8, max_joins, /*per_point_budget_s=*/20.0, &json);
  std::printf(
      "Paper shape check: the steepest growth of all four figures;\n"
      "Prairie ~= Volcano.\n");
  return 0;
}
