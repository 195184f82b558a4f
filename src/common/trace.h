// Low-overhead search tracing (the observability layer's core).
//
// The optimizer emits typed TraceEvents — group expansion/optimization
// spans, rule attempts, plan costings, winner selections, prunes — into a
// TraceSink. Everything downstream (the per-rule profile, the Chrome
// trace_event exporter, ad-hoc analysis) is derived from this one stream,
// so instrumented code never knows who is listening.
//
// Cost model:
//   * Off: a null sink pointer disables tracing at the price of one
//     predictable branch per event site — no clock reads, no stores.
//   * Enabled: events go to a preallocated ring buffer (RingBufferSink),
//     so emission is a couple of stores plus one steady_clock read; the
//     ring never allocates after construction and overwrites the oldest
//     events when full (dropped() reports how many).
//
// Sinks are single-threaded by design: each optimizer (one per worker in
// a batch) owns a private sink, and streams are merged after the workers
// join — no cross-thread contention on the hot path. TraceEvent carries
// the emitting thread id so merged streams stay attributable.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace prairie::common {

/// \brief What one trace event records. Span kinds carry a duration
/// (ts_ns = start, dur_ns = elapsed); instant kinds are points in time.
enum class TraceEventKind : uint8_t {
  kGroupExpand,      ///< Span: transformation closure of one group.
  kGroupOptimize,    ///< Span: OptimizeGroup under one requirement.
  kTransAttempt,     ///< Span: one trans-rule binding (condition + firing).
  kImplAttempt,      ///< Span: one impl-rule application (incl. input opt).
  kEnforcerAttempt,  ///< Span: one enforcer application.
  kTransFire,        ///< Instant: a new logical expression was added.
  kPlanCosted,       ///< Instant: a physical alternative was fully costed.
  kWinnerSelected,   ///< Instant: winner memoized for (group, requirement).
  kPrune,            ///< Instant: branch-and-bound cut a branch.
  kCycleGuard,       ///< Instant: cyclic (group, requirement) search hit.
  // Executor kinds (emitted after a run from ExecStats, in the same
  // steady-clock domain, so optimize and execute share one timeline).
  kExecQuery,     ///< Span: one full query execution (open..close).
  kExecOperator,  ///< Span: one operator's lifetime; desc = algebra OpId.
  kExecQError,    ///< Instant: per-operator Q-error (in `cost`).
};

/// True for kinds that represent a timed interval rather than a point.
inline bool IsSpanKind(TraceEventKind k) {
  return k <= TraceEventKind::kEnforcerAttempt ||
         k == TraceEventKind::kExecQuery ||
         k == TraceEventKind::kExecOperator;
}

/// \brief One fixed-size trace record (no owned memory: rule and group
/// identities are indexes resolved against the RuleSet/memo by consumers).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kGroupExpand;
  int32_t group = -1;   ///< Memo group id, -1 if not applicable.
  int32_t rule = -1;    ///< Index into trans_rules/impl_rules/enforcers.
  int32_t desc = -1;    ///< DescriptorId (requirement or arguments).
  int32_t depth = 0;    ///< Search nesting depth at emission.
  uint32_t tid = 0;     ///< Emitting thread (TraceThreadId()).
  double cost = 0;      ///< Plan/winner cost or pruning budget.
  uint64_t ts_ns = 0;   ///< Steady-clock start timestamp, nanoseconds.
  uint64_t dur_ns = 0;  ///< Span duration (0 for instants).
};

/// Steady-clock timestamp in nanoseconds (the TraceEvent::ts_ns domain).
inline uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stable id of the calling thread, compressed to 32 bits.
inline uint32_t TraceThreadId() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

/// \brief Receiver of one optimizer's event stream. Implementations are
/// not required to be thread-safe: one sink per emitting thread.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const TraceEvent& e) = 0;
};

/// \brief Preallocated fixed-capacity ring sink: O(1) emission, zero
/// allocation after construction; the oldest events are overwritten when
/// the ring is full.
class RingBufferSink final : public TraceSink {
 public:
  /// `capacity` is clamped to >= 1. The buffer (sizeof(TraceEvent) *
  /// capacity bytes) is allocated up front.
  explicit RingBufferSink(size_t capacity = kDefaultCapacity);

  void Emit(const TraceEvent& e) override;

  /// The retained events, oldest first (at most `capacity` of them).
  std::vector<TraceEvent> Snapshot() const;

  size_t capacity() const { return buf_.size(); }
  /// Events ever emitted, including overwritten ones.
  size_t total_emitted() const { return total_; }
  /// Events lost to ring wrap-around (total_emitted() - retained).
  size_t dropped() const {
    return total_ > buf_.size() ? total_ - buf_.size() : 0;
  }

  void Clear();

  static constexpr size_t kDefaultCapacity = size_t{1} << 18;  // ~12 MiB.

 private:
  std::vector<TraceEvent> buf_;
  size_t head_ = 0;   ///< Next write position.
  size_t total_ = 0;  ///< Events emitted over the sink's lifetime.
};

}  // namespace prairie::common
