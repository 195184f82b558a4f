// Shared pieces of the repository benchmark: the run configuration, the
// result report, spec loading and small statistics helpers.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "volcano/rules.h"

namespace perfbench {

/// \brief One benchmark invocation, as given on the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< Where a traced run writes its spans (may be empty).
};

/// Shared virtual machines can alternate between speeds about 1.6x apart,
/// each lasting seconds (measured on a 4-vCPU, 2.1 GHz one). Timings are
/// therefore read at the low end of repeated measurements: per-instance minima over laps on the cold workloads, the
/// lower decile over windows of requests on traffic (upper decile for
/// throughput), and the minimum over set-up repetitions spread across the
/// run. Each of these tracks the code's cost while the machine is fast.
constexpr double kLowPct = 10;
constexpr double kHighPct = 90;

/// Set-up is repeated this many times per run, spread over the run.
constexpr int kSetupReps = 5;

/// \brief The result line: correctness, request counts and named metrics.
class Report {
 public:
  void Metric(const std::string& name, double value);
  /// Counts one request; `ok` false marks it failed.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// The final JSON object: every declared metric of the run's kind, with
  /// its unit; declared metrics nobody set read 0 (a bypassed layer).
  std::string Json(bool trace) const;

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// \brief The OODB rule set, loaded the way prairie_opt loads it.
struct LoadedSpec {
  std::shared_ptr<prairie::volcano::RuleSet> rules;
  double parse_ms = 0;
  double translate_ms = 0;
};

/// opt::OodbSpecText() -> dsl::ParseRuleSet -> p2v::Translate, timed.
prairie::common::Result<LoadedSpec> LoadOodbSpec();

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

/// Linear-interpolated percentile (p in [0, 100]); 0 for no values.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);
double Min(const std::vector<double>& values);

/// Peak resident memory of this process, in MiB.
double PeakRssMb();

/// True when a plan cost equals its reference within a relative 1e-6.
bool CostMatches(double cost, double ref);

/// \brief Set-up timings, one entry per repetition.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> parse_ms;
  std::vector<double> translate_ms;
  std::vector<double> gen_ms;
  std::vector<double> prime_ms;

  void Record(uint64_t start_ns, const LoadedSpec& spec, double gen,
              double prime) {
    total_s.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
    parse_ms.push_back(spec.parse_ms);
    translate_ms.push_back(spec.translate_ms);
    gen_ms.push_back(gen);
    prime_ms.push_back(prime);
  }
};

/// A seed for item (a, b) of a run, derived from the run's seed.
uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// The workloads. Each sets every metric it measures on `report`.
prairie::common::Status RunCold(const RunConfig& config, bool paper,
                                Report* report);
prairie::common::Status RunTraffic(const RunConfig& config, Report* report);

}  // namespace perfbench
