// The repository benchmark program.
//
//   prairie_perfbench --workload paper_cold|bigjoin|traffic --seed N
//                     --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints progress lines, then as its last line one JSON object with the
// run's correctness, request counts and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. README.md describes
// the workloads and every metric.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: prairie_perfbench --workload paper_cold|bigjoin|traffic "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage();
    ++i;
    uint64_t number = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      config.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseUnsigned(value, &config.seed)) return Usage();
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 3600) {
        return Usage();
      }
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseUnsigned(value, &number) || number > 1) return Usage();
      config.trace = number == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      config.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  perfbench::Report report;
  prairie::common::Status status;
  if (config.workload == "paper_cold" || config.workload == "bigjoin") {
    status = perfbench::RunCold(config, config.workload == "paper_cold",
                                &report);
  } else if (config.workload == "traffic") {
    status = perfbench::RunTraffic(config, &report);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "prairie_perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  if (report.failed > 0) report.correct = false;
  std::printf("%s seed %llu: %llu requests, %llu failed (failed_frac %.6f)\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0);
  std::printf("%s\n", report.Json(config.trace).c_str());
  return report.correct ? 0 : 1;
}
