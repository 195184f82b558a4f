// Benchmark-side tracing: one span per call into a layer's public API,
// recorded from outside the library, kept in memory and written at the end.
//
// A layer's self time is its span minus the part of it that its child
// spans cover. The library's own rule profiler is not used for this: its
// spans are inclusive, so its rows do not add up to the wall time.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace perfbench {

/// \brief One recorded call.
struct Span {
  const char* name = "";
  uint32_t request = 0;
  int32_t parent = -1;  ///< Index of the enclosing span; -1 for a root.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// \brief In-memory span recorder for one thread. When disabled it records
/// nothing, and Phase below costs only its two clock reads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int32_t Open(const char* name, uint32_t request, uint64_t start_ns);
  void Close(int32_t id, uint64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  ///< Stack of open spans (innermost last).
};

/// \brief Times one call into a layer. The measured interval and the
/// recorded span share the same two clock reads, so the traced and the
/// untraced runs time exactly the same code.
class Phase {
 public:
  Phase(Tracer* tracer, const char* name, uint32_t request)
      : tracer_(tracer), start_ns_(NowNs()) {
    if (tracer_->enabled()) id_ = tracer_->Open(name, request, start_ns_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  ~Phase() {
    if (!stopped_) Stop();
  }

  /// Ends the phase; returns its duration in nanoseconds.
  uint64_t Stop() {
    const uint64_t end_ns = NowNs();
    stopped_ = true;
    if (id_ >= 0) tracer_->Close(id_, end_ns);
    return end_ns - start_ns_;
  }

 private:
  Tracer* tracer_;
  uint64_t start_ns_;
  int32_t id_ = -1;
  bool stopped_ = false;
};

/// \brief Self-time accounting over a finished trace.
struct Ledger {
  std::vector<double> self_ns;  ///< Per span, aligned with the span list.
  size_t requests = 0;          ///< Root spans named "request".
  size_t violations = 0;  ///< Requests whose self times miss their wall.
  double request_wall_ns = 0;
  double unattributed_ns = 0;  ///< Self time of the request spans.

};

/// Computes self times and checks, for every request, that the self times
/// of its spans (its own unattributed time included) sum to its wall within
/// 5%. A violation means spans overlap or leave their parent, i.e. time
/// would be counted twice.
Ledger Analyze(const std::vector<Span>& spans);

/// Fails the run on any ledger violation and reports the trace.unattributed_pct
/// and trace.requests metrics.
void ReportLedger(const Ledger& ledger, Report* report);

/// Writes one JSON object per span.
prairie::common::Status WriteSpans(const std::vector<Span>& spans,
                                   const std::string& path);

}  // namespace perfbench
