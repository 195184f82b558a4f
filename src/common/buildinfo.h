// Build-configuration provenance for bundles, logs, and --version.
//
// A diagnostic bundle captured on one machine is read on another; whether
// the observability layer (traces, metrics, executor stats) was compiled
// in, and with which compiler, changes what the numbers mean (a
// tracing-off binary reports zero rule latencies honestly). These helpers
// render the repo's one compile-time switch, PRAIRIE_TRACING, in both
// human (--version) and JSON (manifest) form.

#pragma once

#include <string>

#include "common/trace.h"  // PRAIRIE_TRACING default.

namespace prairie::common {

/// Compiler id + version, best effort ("gcc 13.2.0", "clang 17.0.1").
inline std::string CompilerText() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// Human-readable build configuration, one line ("gcc 13.2.0,
/// tracing=1").
inline std::string BuildConfigText() {
  return CompilerText() + ", tracing=" + std::to_string(PRAIRIE_TRACING);
}

/// The same as a JSON object (no trailing newline), for manifests.
inline std::string BuildConfigJson() {
  return std::string("{\"compiler\":\"") + CompilerText() +
         "\",\"tracing\":" + std::to_string(PRAIRIE_TRACING) + "}";
}

}  // namespace prairie::common
