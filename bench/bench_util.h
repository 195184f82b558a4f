// Shared harness for the experiment benchmarks (paper §4.3).
//
// Each figure bench optimizes the paper's queries with both optimizers —
// the P2V-generated one (from the Prairie DSL specification) and the
// hand-coded Volcano one — averaging per-query optimization time over 5
// cardinality seeds per point, exactly like the paper's methodology.

#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/result.h"
#include "volcano/engine.h"
#include "workload/workload.h"

namespace prairie::bench {

/// \brief The optimizers of the comparison: the Prairie specification in
/// its two generated deployments (interpreted rule actions, and compiled
/// C++ emitted by p2v_emit at build time) against the hand-coded Volcano
/// baseline.
struct OptimizerPair {
  std::shared_ptr<volcano::RuleSet> generated;  ///< Prairie -> P2V, interpreted.
  std::shared_ptr<volcano::RuleSet> emitted;    ///< Prairie -> P2V -> C++.
  std::shared_ptr<volcano::RuleSet> hand;       ///< Hand-coded Volcano.
};

/// Builds the OODB pair (used by Figures 10-13, Table 5).
common::Result<OptimizerPair> BuildOodbPair();

/// Builds the relational pair (used by the §4 recap bench).
common::Result<OptimizerPair> BuildRelationalPair();

/// \brief One measured point.
struct Measurement {
  double seconds = 0;      ///< Mean per-query optimization time.
  double cost = 0;         ///< Plan cost of the last instance.
  size_t groups = 0;       ///< Equivalence classes (last instance).
  size_t mexprs = 0;       ///< Logical multi-expressions (last instance).
  double intern_hit_rate = 0;  ///< Descriptor-interning hit rate.
  size_t trans_matched = 0;
  size_t impl_matched = 0;
  common::Status status;   ///< Non-OK if any instance failed.

  bool ok() const { return status.ok(); }
};

/// \brief Machine-readable result log: one JSON object per line, written
/// to BENCH_<name>.json in the working directory, so the perf trajectory
/// of every bench is tracked across PRs.
class JsonWriter {
 public:
  explicit JsonWriter(const std::string& bench_name);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Appends one record. `family` identifies the measured configuration
  /// (query, join count, deployment), e.g. "Q3/n2/emitted".
  void Record(const std::string& family, double wall_us, size_t groups,
              size_t mexprs, double intern_hit_rate);

  /// Convenience: records a Measurement.
  void Record(const std::string& family, const Measurement& m) {
    Record(family, m.seconds * 1e6, m.groups, m.mexprs, m.intern_hit_rate);
  }

  /// Appends one record with bench-specific fields: `extra_json` is a
  /// comma-separated list of already-encoded "key":value pairs appended
  /// after the mandatory bench/family/wall_us fields (may be empty).
  /// Callers embedding free-form strings in `extra_json` must encode them
  /// with common::JsonEscape; the mandatory fields are escaped here.
  void RecordRaw(const std::string& family, double wall_us,
                 const std::string& extra_json);

 private:
  std::FILE* f_ = nullptr;
  std::string bench_;
};

/// Optimizes query `qnum` (paper numbering Q1..Q8) at `num_joins`,
/// averaging over `num_seeds` cardinality seeds. `repeats` re-optimizes
/// each instance to stabilize sub-millisecond timings (the paper looped
/// 3000x for the same reason); an instance's time is its minimum.
Measurement MeasureQuery(const volcano::RuleSet& rules, int qnum,
                         int num_joins, int num_seeds = 5, int repeats = 1);

/// MeasureQuery for several rule sets at once, element i measuring
/// `rules[i]`. Every (seed, repetition) round optimizes the instance once
/// per rule set, back to back, and the round's first rule set rotates, so
/// drift in host speed is shared instead of landing on one of them.
std::vector<Measurement> MeasureInterleaved(
    std::span<const volcano::RuleSet* const> rules, int qnum, int num_joins,
    int num_seeds, int repeats);

/// Prints one figure: per-N mean optimization times for two queries under
/// both optimizers, in a paper-style table. Points whose previous N
/// exceeded `per_point_budget_s` are skipped (mirrors the paper stopping
/// when virtual memory was exhausted). When `json` is non-null, every
/// measured point is also recorded there.
void RunFigure(const std::string& title, const OptimizerPair& pair, int qa,
               int qb, int max_joins, double per_point_budget_s,
               JsonWriter* json = nullptr);

/// Reads a positive integer override from the environment (for extending
/// sweeps), else returns `def`.
int EnvInt(const char* name, int def);

/// \brief A layer timed against its plain baseline by TimePairs.
struct PairTiming {
  double base_s = -1;   ///< Fastest per-iteration time, baseline side.
  double layer_s = -1;  ///< Fastest per-iteration time, layered side.
  std::vector<double> ratios;  ///< layer/base time of each timed pair.
};

/// Times `layer` against `base` as interleaved back-to-back pairs (base,
/// layer, base, layer, ...) so warmup, allocator state and frequency drift
/// hit both sides equally, and each pair's time ratio cancels the host
/// conditions of its moment (independently taken best-of minima read as
/// phantom overhead on busy hosts). One untimed warmup pair comes first
/// and sizes an inner loop (1..64 iterations) that keeps every timed
/// region above 4 ms, so sub-millisecond work is not timer-noise-bound.
/// Each callable runs one iteration; the first non-OK Status aborts.
common::Result<PairTiming> TimePairs(
    int pairs, common::FunctionRef<common::Status()> base,
    common::FunctionRef<common::Status()> layer);

/// The overhead in percent that a set of layer/base ratios shows:
/// 100 x (median - 1). Pool the ratios of many pairs before taking it —
/// the median of a handful still wanders a few percent under host load.
double MedianOverheadPct(std::vector<double> ratios);

}  // namespace prairie::bench
