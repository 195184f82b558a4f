// Consumers of the optimizer's trace-event stream (observability layer):
//
//   * BuildRuleProfile — aggregates the stream into per-rule attempt/firing
//     counts and self times (the "where does optimization time go" view).
//   * WriteChromeTrace — exports the stream in Chrome trace_event JSON, the
//     format chrome://tracing and Perfetto load directly.
//
// Both are pure functions of one event vector plus the RuleSet that names
// the rule indexes; the engine never links against them.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "volcano/rules.h"

namespace prairie::volcano {

/// \brief Aggregated activity of one rule (or enforcer). Times are self
/// times: an attempt span's duration minus the spans nested directly in
/// it, so an impl rule's row leaves out the optimization of its inputs and
/// the rows of one search add up to at most its wall time.
struct RuleProfileRow {
  std::string name;
  size_t attempts = 0;   ///< Attempt spans observed.
  size_t fired = 0;      ///< Trans: expressions added. Impl: plans costed.
  uint64_t self_ns = 0;  ///< Cumulative attempt self time.
  uint64_t max_ns = 0;   ///< Longest single attempt's self time.
};

/// \brief Per-rule profile derived from one trace-event stream.
struct RuleProfile {
  std::vector<RuleProfileRow> trans;
  std::vector<RuleProfileRow> impl;
  std::vector<RuleProfileRow> enforcers;
  size_t events = 0;   ///< Events aggregated.
  size_t dropped = 0;  ///< Events lost to ring wrap (caller-supplied).

  /// Sum of trans-rule firings — equals OptimizerStats::trans_fired when
  /// the stream is complete (dropped == 0).
  size_t TotalTransFired() const;

  /// Human-readable table (one section per rule class), rules sorted by
  /// cumulative self time; rules never attempted are omitted.
  std::string ToTable() const;
};

/// Aggregates `events` against the rule names of `rules`. Spans nest per
/// emitting thread (`tid`); any event order is accepted, a sink's
/// end-of-span order and BatchOptimizer's start-ordered merge alike.
/// `dropped` is the emitting sink's drop count (RingBufferSink::dropped());
/// it is carried into the profile so consumers can flag an incomplete
/// stream.
RuleProfile BuildRuleProfile(const std::vector<common::TraceEvent>& events,
                             const RuleSet& rules, size_t dropped = 0);

/// Writes `events` to `path` in Chrome trace_event JSON ("X" complete
/// events for spans, "i" instants; timestamps rebased to the earliest
/// event). Load the file in chrome://tracing or https://ui.perfetto.dev.
/// `dropped` is the emitting sink's ring-wrap loss count; it is recorded
/// as metadata ("dropped_events") so a viewer of an incomplete stream
/// knows it is incomplete.
common::Status WriteChromeTrace(const std::string& path,
                                const std::vector<common::TraceEvent>& events,
                                const RuleSet& rules, size_t dropped = 0);

}  // namespace prairie::volcano
