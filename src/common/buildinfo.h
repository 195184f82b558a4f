// Build provenance for bundles, logs, and --version.
//
// A diagnostic bundle captured on one machine is read on another; the
// compiler that built the binary is part of what its numbers mean. These
// helpers render it in both human (--version) and JSON (manifest) form.

#pragma once

#include <string>

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

/// The build as a JSON object (no trailing newline), for manifests.
inline std::string BuildConfigJson() {
  return "{\"compiler\":\"" + CompilerText() + "\"}";
}

}  // namespace prairie::common
