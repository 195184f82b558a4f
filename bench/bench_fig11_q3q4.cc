// Figure 11: query optimization times for Q3 and Q4 (expression E2 — each
// class retrieval followed by a MATerialization), Prairie vs. Volcano.
// The paper's sweep ended at 8-way joins when virtual memory was
// exhausted; ours self-limits on a per-point time budget (override the
// sweep end with PRAIRIE_MAX_JOINS).

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  auto pair = prairie::bench::BuildOodbPair();
  if (!pair.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  int max_joins = prairie::bench::EnvInt("PRAIRIE_MAX_JOINS", 8);
  prairie::bench::JsonWriter json("fig11_q3q4");
  prairie::bench::RunFigure(
      "Figure 11: optimization time for Q3 / Q4 (E2, MAT after each RET)",
      *pair, /*qa=*/3, /*qb=*/4, max_joins, /*per_point_budget_s=*/15.0, &json);
  std::printf(
      "Paper shape check: identical Q3/Q4 curves (indices unused), steeper\n"
      "growth than Figure 10, Prairie ~= Volcano.\n");
  return 0;
}
