// The top-down, branch-and-bound search engine (the paper's back-end,
// modelled on the Volcano optimizer generator's search strategy).
//
// Optimization proceeds from the root group downward: transformation rules
// expand a group to its logical closure; implementation rules and
// enforcers produce costed physical alternatives under the required
// physical properties; winners are memoized per (group, requirement); a
// cost limit prunes alternatives that cannot beat the best plan found so
// far.

#pragma once

#include <array>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algebra/descriptor_store.h"
#include "catalog/catalog.h"
#include "common/function_ref.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "volcano/memo.h"
#include "volcano/plan.h"
#include "volcano/rules.h"

namespace prairie::volcano {

class PlanCache;
struct OptimizerStats;

/// \brief Registry-backed series the search engine writes (aggregate
/// observability; the per-event companion is the trace stream). All
/// members are borrowed from a MetricsRegistry and may individually be
/// null (skipped). Build one bundle with ForRegistry() and share it across
/// any number of optimizers and batches — counters are sharded per thread,
/// so concurrent workers do not contend.
///
/// Write discipline: the engine's counters are a view of its per-query
/// ledger, OptimizerStats. Each row of CounterRows() names one series and
/// the ledger quantity it accumulates; at the end of each query the
/// optimizer adds every row's change since its previous flush. Nothing is
/// written on the search's hot path.
struct VolcanoMetrics {
  /// \brief One exported counter: its series and the ledger quantity it
  /// accumulates.
  struct CounterRow {
    const char* name;
    const char* help;
    uint64_t (*read)(const OptimizerStats&);
    /// Interning traffic of the descriptor store. A concurrent store's
    /// counters mix every worker's interning into each query's delta, so
    /// for such a store these rows are added once per batch
    /// (AddStoreTraffic) instead of per query.
    bool store_traffic = false;
  };
  static constexpr size_t kNumCounters = 21;
  /// The table: search, memo, intern and plan-cache counters, in that order.
  static std::span<const CounterRow, kNumCounters> CounterRows();

  /// counters[i] accumulates CounterRows()[i].
  std::array<common::Counter*, kNumCounters> counters{};
  common::Counter* queries = nullptr;  ///< Optimize() calls.
  // Bumped by BatchOptimizer after its join barrier.
  common::Counter* batch_runs = nullptr;           ///< OptimizeAll calls.
  common::Counter* batch_worker_merges = nullptr;  ///< Worker streams merged.
  /// Arena bytes backing the last flushed memo's groups and expression
  /// lists (a gauge: each query's flush overwrites it with the memo it
  /// searched, so it tracks the most recent search's footprint).
  common::Gauge* memo_arena_bytes = nullptr;
  /// Per-query optimization wall time in nanoseconds (every query).
  common::Histogram* query_latency_ns = nullptr;
  /// Plan-cache key-build + probe wall time in nanoseconds (every probe;
  /// this is the entire warm-hit cost).
  common::Histogram* plan_cache_probe_ns = nullptr;

  /// Registers the full bundle (prairie_* series) in `registry`.
  static VolcanoMetrics ForRegistry(common::MetricsRegistry* registry);

  /// Adds the store_traffic rows' change between two snapshots of one
  /// concurrent store (BatchOptimizer, once per batch).
  void AddStoreTraffic(
      const algebra::DescriptorStore::CounterSnapshot& before,
      const algebra::DescriptorStore::CounterSnapshot& after) const;
};

/// \brief Tuning knobs of one optimization run.
struct OptimizerOptions {
  /// Branch-and-bound pruning (Volcano's cost limits). Disabling it makes
  /// the search exhaustive — used by the ablation bench and by property
  /// tests that compare against full enumeration.
  bool prune = true;
  /// Initial cost limit for the root (infinite by default).
  double initial_cost_limit = std::numeric_limits<double>::infinity();
  /// Search-trace event sink (borrowed; must outlive the optimizer). Null
  /// disables tracing: the per-event cost is one predictable branch. Sinks
  /// are single-threaded — give each optimizer its own (BatchOptimizer wires
  /// one per worker and merges afterwards).
  common::TraceSink* trace = nullptr;
  /// Aggregate metrics bundle (borrowed; must outlive the optimizer). Null
  /// disables metrics; either way the search itself writes nothing to it
  /// (counters flush per query). Unlike trace sinks, one bundle is safely
  /// shared by concurrent batch workers.
  const VolcanoMetrics* metrics = nullptr;
  /// Shared plan cache (borrowed; must outlive the optimizer). Null
  /// disables caching — the classic search-every-query path, with zero
  /// added cost. Non-null: Optimize() probes by canonical fingerprint
  /// before searching and stores winning plans after. The cache must be
  /// bound to the SAME DescriptorStore this optimizer interns through
  /// (the shared batch store, or the store passed at construction) — a
  /// mismatched cache is bypassed, since its keys would be meaningless.
  PlanCache* plan_cache = nullptr;
  /// Parameterized caching (requires plan_cache): queries are canonicalized
  /// into constant-stripped skeletons (algebra::ParameterizeQuery) before
  /// probing, so queries differing only in predicate literals share one
  /// cache entry; hits rebind the probe's constants into a copy of the
  /// cached plan, guarded by the cache's selectivity band
  /// (PlanCacheOptions::param_band). Queries with no strippable constants
  /// key on their own tree with zero slots, as every query does with this
  /// off. Off by default — with this false, cache behavior is
  /// byte-identical to exact-only caching.
  bool param_cache = false;
  MemoLimits memo_limits;
  /// Anytime budgets (0 = unlimited): stop EXPANDING the search space once
  /// the wall clock or the allocated-group count passes the budget, then
  /// cost what exists and return the best plan found so far (possibly
  /// suboptimal, never invalid). Unlike MemoLimits these never fail the
  /// query; budget-exhausted searches skip the plan-cache insert so a
  /// truncated plan is not served to future queries.
  double search_budget_ms = 0;
  size_t group_budget = 0;
};

/// \brief The optimizer's per-query ledger: the counters reported by the
/// experiments (Table 5, Figure 14) and exported by VolcanoMetrics. The
/// counters accumulate over every call on one optimizer.
struct OptimizerStats {
  size_t groups = 0;         ///< Equivalence classes after optimization.
  size_t mexprs = 0;         ///< Logical multi-expressions.
  size_t trans_attempts = 0;   ///< Trans-rule binding condition evaluations.
  size_t trans_fired = 0;      ///< New expressions generated by trans rules.
  size_t impl_attempts = 0;    ///< Impl-rule firings attempted.
  size_t plans_costed = 0;     ///< Physical alternatives fully costed.
  size_t enforcer_attempts = 0;
  size_t winners_selected = 0;   ///< (group, requirement) winners memoized.
  size_t prunes = 0;             ///< Branch-and-bound cuts.
  size_t cycle_guard_hits = 0;   ///< Cyclic (group, requirement) searches.
  /// The memo's tallies as of the end of the last call.
  MemoTallies memo;
  /// Descriptor-interning traffic (the memo's DescriptorStore) since this
  /// optimizer was constructed. Exact for a private or sequentially shared
  /// store; approximate under concurrent workers, whose interning lands in
  /// the same store counters at the same time.
  size_t desc_interned = 0;    ///< Distinct descriptors hash-consed.
  uint64_t desc_lookups = 0;   ///< Interning probes.
  uint64_t desc_hits = 0;      ///< Probes that found an existing descriptor.
  /// Plan-cache traffic of this optimizer (one query: probes <= 1).
  size_t cache_probes = 0;     ///< Plan-cache lookups performed.
  size_t cache_hits = 0;       ///< Lookups served from the cache.
  size_t cache_param_hits = 0;  ///< Hits served by skeleton rebinding.
  size_t cache_param_rejects = 0;  ///< Probes the sensitivity guard
                                   ///< turned away (optimized fresh).
  size_t cache_stale_drops = 0;  ///< Hits discarded because the entry's
                                 ///< descriptors no longer resolve (store
                                 ///< mismatch after eviction/rebuild).
  size_t cache_inserts = 0;        ///< Searched plans offered to the cache.
  size_t cache_param_inserts = 0;  ///< Of those, under a skeleton key.
  /// True when the last Optimize() answer came from the plan cache (the
  /// memo then holds no search to explain or dump).
  bool plan_from_cache = false;
  /// True when an anytime budget (search_budget_ms / group_budget) ran out
  /// before the search space was fully expanded: the returned plan is the
  /// best over the truncated space.
  bool budget_exhausted = false;
  /// Per-rule "did its LHS match (and its condition pass) anywhere" flags —
  /// the paper's Table 5 "rules matched" columns.
  std::vector<char> trans_matched;
  std::vector<char> impl_matched;

  size_t NumTransMatched() const;
  size_t NumImplMatched() const;
  /// Fraction of interning probes resolved to an existing descriptor.
  double InternHitRate() const;
};

/// \brief One-shot query optimizer: construct, call Optimize once (or
/// CountOnly for expansion statistics), inspect stats.
class Optimizer {
 public:
  /// `shared_store` null: the optimizer's memo owns a private serial
  /// descriptor store. Non-null: the memo interns through the given store —
  /// BatchOptimizer passes one concurrent store to every worker so ids stay
  /// globally canonical.
  Optimizer(const RuleSet* rules, const catalog::Catalog* catalog,
            OptimizerOptions options = OptimizerOptions(),
            algebra::DescriptorStore* shared_store = nullptr);

  /// Optimizes a logical operator tree into the cheapest access plan that
  /// delivers the physical properties set (non-null) in `required`. Both
  /// this and ExpandOnly() return a RuleError when the rule set skipped
  /// RuleSet::Finalize().
  common::Result<Plan> Optimize(const algebra::Expr& tree,
                                const algebra::Descriptor& required);

  /// Convenience overload with no required properties.
  common::Result<Plan> Optimize(const algebra::Expr& tree);

  /// Expands the full logical search space of `tree` without costing any
  /// plan; used to measure equivalence-class growth (Figure 14).
  common::Result<size_t> ExpandOnly(const algebra::Expr& tree);

  const OptimizerStats& stats() const { return stats_; }
  const Memo& memo() const { return *memo_; }
  const RuleSet& rules() const { return *rules_; }

  /// After Optimize() succeeded: a human-readable provenance walk of the
  /// chosen plan — for every winner on the chain, the implementation rule
  /// or enforcer that produced it and the trans-rule derivation of the
  /// logical expression it implements (why the plan exists).
  std::string ExplainWinner() const;

 private:
  struct MatchBinding {
    /// (descriptor slot, (group, expr index)) for each matched op node.
    std::vector<std::pair<int, std::pair<GroupId, int>>> op_nodes;
    /// streams[v-1] = (group, descriptor slot) for stream variable ?v.
    std::vector<std::pair<GroupId, int>> streams;
  };

  /// Continuation type of the binding enumerator: a borrowed callable (the
  /// continuations live on the enclosing stack frame, so the non-owning
  /// FunctionRef avoids a std::function allocation per recursion level).
  using EmitFn = common::FunctionRef<common::Status()>;

  /// Expands `gid` to its transformation closure.
  common::Status ExpandGroup(GroupId gid);
  common::Status ApplyTransRule(GroupId gid, size_t expr_idx, size_t rule_idx,
                                bool* epoch_changed);
  common::Status EnumerateBindings(const algebra::PatNode& pat, GroupId gid,
                                   int expr_idx, MatchBinding* binding,
                                   EmitFn emit, bool* aborted, uint64_t epoch);
  /// Matches pat.children[k..] against `child_groups`, a view of a memo
  /// expression's child list that is read only while the merge epoch is
  /// still `epoch`.
  common::Status MatchChildren(const algebra::PatNode& pat,
                               std::span<const GroupId> child_groups,
                               size_t k, MatchBinding* binding, EmitFn emit,
                               bool* aborted, uint64_t epoch);
  common::Status FireBinding(GroupId gid, const TransRule& rule,
                             size_t rule_idx, const MatchBinding& binding);
  common::Result<GroupId> BuildRhs(const algebra::PatNode& node,
                                   BindingView* bv, int src_rule);

  common::Result<Winner> OptimizeGroup(GroupId gid,
                                       const algebra::Descriptor& req,
                                       double limit);
  common::Status TryImplRule(GroupId gid, algebra::DescriptorId rid,
                             const MExpr& m, const ImplRule& rule,
                             size_t rule_idx, const algebra::Descriptor& req,
                             double* budget, Winner* best,
                             WinnerProv* best_prov, bool* limit_failure);
  common::Status TryEnforcer(GroupId gid, algebra::DescriptorId rid,
                             const Enforcer& enf, size_t enf_idx,
                             const algebra::Descriptor& req, double* budget,
                             Winner* best, WinnerProv* best_prov,
                             bool* limit_failure);

  common::Result<Plan> OptimizeImpl(const algebra::Expr& tree,
                                    const algebra::Descriptor& req);
  /// Arms the anytime budget for one Optimize()/ExpandOnly() call.
  void ArmBudget();
  /// True once the wall-clock or group budget ran out (sticky per query;
  /// the clock is sampled 1-in-64 checks).
  bool BudgetExhausted();
  /// Plan-cache front door: probe by canonical fingerprint, fall through
  /// to OptimizeImpl on a miss and insert the winner. `req` must already
  /// be normalized (NormalizeReq).
  common::Result<Plan> OptimizeCached(const algebra::Expr& tree,
                                      const algebra::Descriptor& req);
  /// The full-schema requirement descriptor: phys_props copied from
  /// `required` (when valid) over an otherwise-empty descriptor, so
  /// Optimize(tree) and Optimize(tree, empty) agree on one canonical form.
  algebra::Descriptor NormalizeReq(const algebra::Descriptor& required) const;
  /// The usable plan cache, or null (none configured, no catalog, or the
  /// cache is bound to a foreign descriptor store).
  PlanCache* UsableCache() const;

  algebra::Descriptor MakeReq() const;
  /// Interns the physical-slice projection of `req`; winner maps key on the
  /// returned id (id equality <=> requirement equality, no collision guard).
  algebra::DescriptorId ReqId(const algebra::Descriptor& req);
  BindingView MakeBinding(int num_slots);
  /// The binding buffer of trans rule `rule_idx`, emptied for one attempt:
  /// every slot Null, `num_streams` unbound streams. Its storage is reused
  /// from attempt to attempt, so a warm buffer allocates nothing.
  BindingView& TransBinding(size_t rule_idx, size_t num_streams);
  /// Brings the ledger's memo tallies and store deltas up to date (end of
  /// each Optimize()/ExpandOnly() call).
  void RecordLedger();
  /// Adds every counter row's change since the last flush to the registry
  /// (end of each query).
  void FlushMetrics();

  /// True when a trace sink is attached.
  bool Traced() const { return options_.trace != nullptr; }
  /// Emits an instant trace event; a null sink costs one branch.
  void TraceInstant(common::TraceEventKind kind, GroupId gid, int rule,
                    algebra::DescriptorId desc, double cost) {
    if (Traced()) TraceInstantSlow(kind, gid, rule, desc, cost);
  }
  void TraceInstantSlow(common::TraceEventKind kind, GroupId gid, int rule,
                        algebra::DescriptorId desc, double cost);

  /// RAII trace span: with a sink attached it emits one span event (with
  /// duration and nesting depth) at destruction. Inert (no clock read,
  /// nothing emitted) otherwise.
  class TraceSpan {
   public:
    TraceSpan(Optimizer* opt, common::TraceEventKind kind, GroupId gid,
              int rule, algebra::DescriptorId desc) {
      if (opt->Traced()) Begin(opt, kind, gid, rule, desc);
    }
    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;
    ~TraceSpan() {
      if (opt_ != nullptr) End();
    }

   private:
    void Begin(Optimizer* opt, common::TraceEventKind kind, GroupId gid,
               int rule, algebra::DescriptorId desc);
    void End();

    Optimizer* opt_ = nullptr;
    common::TraceEventKind kind_ = common::TraceEventKind::kGroupExpand;
    GroupId gid_ = -1;
    int rule_ = -1;
    algebra::DescriptorId desc_ = algebra::kInvalidDescriptorId;
    uint64_t start_ns_ = 0;
  };

  /// ExplainWinner() helpers: recursive winner walk and source-expression
  /// resolution by interned identity key (robust to merges).
  void ExplainGroup(GroupId gid, algebra::DescriptorId rid, int indent,
                    int depth, std::string* out) const;
  const MExpr* FindByArgKey(GroupId gid, algebra::DescriptorId key,
                            const MExpr* exclude) const;
  /// Resolves a winner's implemented expression by arg_key plus child
  /// groups (arg_key alone is ambiguous between child orderings).
  const MExpr* FindImplemented(GroupId gid, algebra::DescriptorId key,
                               const std::vector<GroupId>& children) const;
  std::string RenderExpr(const MExpr& m) const;

  /// RuleError unless Finalize() built the per-operator dispatch index the
  /// rule loops walk (one bucket per operator of the algebra).
  common::Status CheckFinalized() const;

  const RuleSet* rules_;
  const catalog::Catalog* catalog_;
  OptimizerOptions options_;
  std::unique_ptr<Memo> memo_;
  algebra::SliceId phys_slice_id_;
  OptimizerStats stats_;
  /// Anytime-budget state, armed per query by ArmBudget().
  bool has_budget_ = false;
  uint64_t deadline_ns_ = 0;
  size_t group_budget_ = 0;
  uint32_t budget_tick_ = 0;
  /// Store counters at construction: RecordLedger() reports deltas, so a
  /// store shared across a batch does not inflate one query's interning
  /// stats with the traffic of queries before it.
  algebra::DescriptorStore::CounterSnapshot store0_;
  /// One binding buffer per trans rule (TransBinding), created on the
  /// first firing. A firing never re-enters FireBinding, so an attempt
  /// owns its rule's buffer until it returns; impl and enforcer bindings
  /// recurse through OptimizeGroup and build fresh ones (MakeBinding).
  std::vector<BindingView> trans_bindings_;
  /// Tracing state: emitting thread id (cached) and current span depth.
  uint32_t trace_tid_ = 0;
  int trace_depth_ = 0;
  /// Each counter row's value as of the last flush (FlushMetrics adds only
  /// the change, so repeated Optimize() calls never double-count).
  std::array<uint64_t, VolcanoMetrics::kNumCounters> flushed_{};
  /// Root of the last Optimize()/ExpandOnly() call and its interned
  /// requirement id — the entry point of ExplainWinner().
  GroupId explain_root_ = -1;
  algebra::DescriptorId explain_req_ = algebra::kInvalidDescriptorId;
  /// Cycle guard for in-flight (group, requirement) searches, keyed on the
  /// exact pair: a 64-bit mixed key could collide two distinct pairs and
  /// silently prune a feasible branch as "cyclic".
  struct ProgressKeyHash {
    size_t operator()(
        const std::pair<GroupId, algebra::DescriptorId>& p) const noexcept {
      return static_cast<size_t>(
          common::HashCombine(static_cast<uint64_t>(p.first),
                              static_cast<uint64_t>(p.second)));
    }
  };
  std::unordered_set<std::pair<GroupId, algebra::DescriptorId>,
                     ProgressKeyHash>
      in_progress_;
};

}  // namespace prairie::volcano
