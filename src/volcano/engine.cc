#include "volcano/engine.h"

#include <algorithm>

#include "algebra/param.h"
#include "common/hash.h"
#include "common/strings.h"
#include "volcano/plancache.h"

namespace prairie::volcano {

using algebra::Descriptor;
using algebra::PatNode;
using algebra::PropertyId;
using algebra::Value;
using common::Result;
using common::Status;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

size_t OptimizerStats::NumTransMatched() const {
  size_t n = 0;
  for (char c : trans_matched) n += (c != 0);
  return n;
}

size_t OptimizerStats::NumImplMatched() const {
  size_t n = 0;
  for (char c : impl_matched) n += (c != 0);
  return n;
}

double OptimizerStats::InternHitRate() const {
  return desc_lookups == 0 ? 0.0
                           : static_cast<double>(desc_hits) /
                                 static_cast<double>(desc_lookups);
}

Optimizer::Optimizer(const RuleSet* rules, const catalog::Catalog* catalog,
                     OptimizerOptions options,
                     algebra::DescriptorStore* shared_store)
    : rules_(rules),
      catalog_(catalog),
      options_(options),
      memo_(std::make_unique<Memo>(rules, options.memo_limits, shared_store)),
      phys_slice_id_(memo_->store()->RegisterSlice(rules->PhysSlice())) {
  stats_.trans_matched.assign(rules_->trans_rules.size(), 0);
  stats_.impl_matched.assign(rules_->impl_rules.size(), 0);
  // Snapshot the store counters before this optimizer interns anything:
  // RecordLedger() reports deltas against these.
  store0_ = memo_->store()->Counters();
  if (options_.trace != nullptr) trace_tid_ = common::TraceThreadId();
}

Status Optimizer::CheckFinalized() const {
  const size_t num_ops = static_cast<size_t>(rules_->algebra->size());
  if (rules_->trans_rules_by_op.size() != num_ops ||
      rules_->impl_rules_by_op.size() != num_ops) {
    return Status::RuleError("rule set '" + rules_->name +
                             "' was not finalized (call RuleSet::Finalize())");
  }
  return Status::OK();
}

Descriptor Optimizer::MakeReq() const {
  return Descriptor(&rules_->algebra->properties());
}

algebra::DescriptorId Optimizer::ReqId(const Descriptor& req) {
  return memo_->store()->InternProjected(phys_slice_id_, req);
}

BindingView Optimizer::MakeBinding(int num_slots) {
  BindingView bv;
  bv.slots.assign(static_cast<size_t>(num_slots),
                  Descriptor(&rules_->algebra->properties()));
  bv.algebra = rules_->algebra.get();
  bv.catalog = catalog_;
  bv.store = memo_->store();
  return bv;
}

BindingView& Optimizer::TransBinding(size_t rule_idx, size_t num_streams) {
  if (trans_bindings_.empty()) {
    trans_bindings_.resize(rules_->trans_rules.size());
  }
  BindingView& bv = trans_bindings_[rule_idx];
  const algebra::PropertySchema* schema = &rules_->algebra->properties();
  bv.slots.resize(static_cast<size_t>(rules_->trans_rules[rule_idx].num_slots));
  for (Descriptor& d : bv.slots) d.Reset(schema);
  bv.streams.assign(num_streams, -1);
  bv.algebra = rules_->algebra.get();
  bv.catalog = catalog_;
  bv.store = memo_->store();
  return bv;
}

void Optimizer::RecordLedger() {
  stats_.memo = memo_->tallies();
  // Deltas since construction, not the store-global totals: under a
  // shared (batch) store the global counters include every other worker's
  // interning. The delta is exact for a private or sequentially shared
  // store and a close approximation under truly concurrent workers.
  const algebra::DescriptorStore::CounterSnapshot snap =
      memo_->store()->Counters();
  stats_.desc_interned = snap.size - store0_.size;
  stats_.desc_lookups = snap.lookups - store0_.lookups;
  stats_.desc_hits = snap.hits - store0_.hits;
}

Result<Plan> Optimizer::Optimize(const algebra::Expr& tree,
                                 const Descriptor& required) {
  PRAIRIE_RETURN_NOT_OK(CheckFinalized());
  const VolcanoMetrics* mm = options_.metrics;
  const uint64_t t0 = mm != nullptr ? common::TraceNowNs() : 0;
  Result<Plan> result = OptimizeCached(tree, NormalizeReq(required));
  RecordLedger();
  if (mm != nullptr) {
    if (mm->query_latency_ns != nullptr) {
      mm->query_latency_ns->Observe(common::TraceNowNs() - t0);
    }
    if (mm->queries != nullptr) mm->queries->Inc();
    FlushMetrics();
  }
  return result;
}

Descriptor Optimizer::NormalizeReq(const Descriptor& required) const {
  Descriptor req = MakeReq();
  if (required.valid()) {
    for (PropertyId id : rules_->phys_props) {
      req.SetUnchecked(id, required.Get(id));
    }
  }
  return req;
}

PlanCache* Optimizer::UsableCache() const {
  PlanCache* cache = options_.plan_cache;
  if (cache == nullptr || catalog_ == nullptr) return nullptr;
  // A cache keyed through a different descriptor store holds ids that mean
  // something else here; serving from it could return a wrong plan, so it
  // is bypassed entirely rather than trusted.
  if (cache->store() != memo_->store()) return nullptr;
  return cache;
}

Result<Plan> Optimizer::OptimizeCached(const algebra::Expr& tree,
                                       const Descriptor& req) {
  PlanCache* cache = UsableCache();
  stats_.plan_from_cache = false;
  if (cache == nullptr) return OptimizeImpl(tree, req);
  const VolcanoMetrics* mm = options_.metrics;
  const uint64_t p0 = mm != nullptr ? common::TraceNowNs() : 0;
  // Parameterized mode: canonicalize the query into a constant-stripped
  // skeleton and key over THAT, so queries differing only in literals
  // share one entry. The canonicalization happens inside the probe-timed
  // region — it is part of the honest warm-hit cost. Queries with nothing
  // to strip (and param_cache off) key on their own tree with no slots.
  PlanCache::ParamInfo pinfo;
  algebra::ExprPtr skeleton;
  if (options_.param_cache) {
    algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(tree);
    if (pq.skeleton != nullptr) {
      skeleton = std::move(pq.skeleton);
      pinfo.slots = std::move(pq.slots);
      pinfo.guard_est = ParamSelectivity(pinfo.slots, *catalog_);
    }
  }
  const bool parameterized = skeleton != nullptr;
  const PlanCache::Key key =
      PlanCache::MakeKey(parameterized ? *skeleton : tree, ReqId(req),
                         *catalog_, memo_->store());
  Plan hit;
  bool dropped_stale = false;
  bool guard_rejected = false;
  const bool found = cache->Probe(key, *catalog_, pinfo, &hit,
                                  &dropped_stale, &guard_rejected);
  if (mm != nullptr && mm->plan_cache_probe_ns != nullptr) {
    mm->plan_cache_probe_ns->Observe(common::TraceNowNs() - p0);
  }
  ++stats_.cache_probes;
  if (guard_rejected) ++stats_.cache_param_rejects;
  if (dropped_stale) ++stats_.cache_stale_drops;
  if (found) {
    ++stats_.cache_hits;
    if (parameterized) ++stats_.cache_param_hits;
    stats_.plan_from_cache = true;
    // The memo holds no search for this query: ExplainWinner() must not
    // report a previous query's derivation.
    explain_root_ = -1;
    explain_req_ = algebra::kInvalidDescriptorId;
    return hit;
  }
  // Always optimize the ORIGINAL tree — the skeleton was only the key.
  Result<Plan> result = OptimizeImpl(tree, req);
  // A budget-exhausted plan is valid but possibly suboptimal: caching it
  // would serve the truncated plan to future unbudgeted queries.
  if (result.ok() && !stats_.budget_exhausted) {
    cache->Insert(key, *catalog_, pinfo, result.ValueOrDie());
    ++stats_.cache_inserts;
    if (parameterized) ++stats_.cache_param_inserts;
  }
  return result;
}

void Optimizer::ArmBudget() {
  stats_.budget_exhausted = false;
  budget_tick_ = 0;
  group_budget_ = options_.group_budget;
  has_budget_ = options_.search_budget_ms > 0;
  deadline_ns_ =
      has_budget_
          ? common::TraceNowNs() +
                static_cast<uint64_t>(options_.search_budget_ms * 1e6)
          : 0;
}

bool Optimizer::BudgetExhausted() {
  if (stats_.budget_exhausted) return true;
  if (!has_budget_ && group_budget_ == 0) return false;
  if (group_budget_ != 0 && memo_->allocated_groups() > group_budget_) {
    stats_.budget_exhausted = true;
    return true;
  }
  // The clock is sampled 1-in-64 checks: a TraceNowNs() per rule probe
  // would cost more than the rule dispatch it guards.
  if (has_budget_ && (++budget_tick_ & 63u) == 0 &&
      common::TraceNowNs() >= deadline_ns_) {
    stats_.budget_exhausted = true;
    return true;
  }
  return false;
}

Result<Plan> Optimizer::OptimizeImpl(const algebra::Expr& tree,
                                     const Descriptor& req) {
  ArmBudget();
  PRAIRIE_ASSIGN_OR_RETURN(GroupId root, memo_->CopyIn(tree));
  PRAIRIE_ASSIGN_OR_RETURN(
      Winner w, OptimizeGroup(root, req, options_.initial_cost_limit));
  // Entry point of ExplainWinner(): the canonical root group and the
  // interned requirement the final winner is memoized under.
  explain_root_ = memo_->Find(root);
  explain_req_ = ReqId(req);
  stats_.groups = memo_->NumGroups();
  stats_.mexprs = memo_->NumExprs();
  if (!w.has_plan) {
    return Status::OptimizeError(
        "no access plan found for '" + tree.ToString(*rules_->algebra) +
        "' under the given requirements");
  }
  return Plan{w.plan, w.cost};
}

Result<Plan> Optimizer::Optimize(const algebra::Expr& tree) {
  return Optimize(tree, MakeReq());
}

Result<size_t> Optimizer::ExpandOnly(const algebra::Expr& tree) {
  PRAIRIE_RETURN_NOT_OK(CheckFinalized());
  ArmBudget();
  PRAIRIE_ASSIGN_OR_RETURN(GroupId root, memo_->CopyIn(tree));
  PRAIRIE_RETURN_NOT_OK(ExpandGroup(root));
  // Expand every group that became reachable so the count reflects the
  // full logical search space.
  for (size_t changed = 1; changed != 0;) {
    changed = 0;
    for (size_t g = 0; g < memo_->allocated_groups(); ++g) {
      GroupId rep = memo_->Find(static_cast<GroupId>(g));
      if (rep != static_cast<GroupId>(g)) continue;
      if (!memo_->group(rep).expanded && !memo_->group(rep).expanding) {
        PRAIRIE_RETURN_NOT_OK(ExpandGroup(rep));
        ++changed;
      }
    }
  }
  stats_.groups = memo_->NumGroups();
  stats_.mexprs = memo_->NumExprs();
  RecordLedger();
  FlushMetrics();
  return stats_.groups;
}

// ---------------------------------------------------------------------------
// Transformation phase
// ---------------------------------------------------------------------------

Status Optimizer::ExpandGroup(GroupId gid) {
  gid = memo_->Find(gid);
  // The `expanding` flag is cleared on the group object it was set on,
  // even if a merge under this pass makes another group canonical.
  const GroupId claimed = gid;
  Group& claimed_grp = memo_->group(claimed);
  if (claimed_grp.expanded || claimed_grp.expanding) return Status::OK();
  claimed_grp.expanding = true;
  TraceSpan span(this, common::TraceEventKind::kGroupExpand, gid, -1,
                 algebra::kInvalidDescriptorId);
  Status st = Status::OK();
  bool restart = true;
  while (restart && st.ok()) {
    restart = false;
    for (size_t ei = 0; st.ok(); ++ei) {
      // Anytime budget: freeze the logical search space as-is. The group is
      // marked expanded so no pass retries it; costing proceeds over
      // whatever alternatives exist.
      if (BudgetExhausted()) break;
      gid = memo_->Find(gid);
      Group* grp = &memo_->group(gid);
      if (ei >= grp->exprs.size()) break;
      if (grp->exprs[ei].is_file || grp->exprs[ei].dead) continue;
      // Only rules whose LHS root is this expression's operator can match;
      // the dispatch index skips the rest of the rule vector. (An
      // expression's operator never changes in place — merges that move
      // expressions abort the pass through epoch_changed below.)
      const std::vector<uint32_t>& bucket =
          rules_->trans_rules_by_op[static_cast<size_t>(grp->exprs[ei].op)];
      for (size_t k = 0; k < bucket.size() && st.ok(); ++k) {
        const size_t ri = bucket[k];
        gid = memo_->Find(gid);
        grp = &memo_->group(gid);
        if (ei >= grp->exprs.size()) break;
        if (grp->exprs[ei].applied.Test(static_cast<int>(ri))) continue;
        bool epoch_changed = false;
        st = ApplyTransRule(gid, ei, ri, &epoch_changed);
        if (!st.ok()) break;
        if (epoch_changed) {
          // Groups merged under us: expression indices moved. Restart the
          // pass; the applied bitset keeps finished work cheap to skip.
          restart = true;
          break;
        }
        gid = memo_->Find(gid);
        grp = &memo_->group(gid);
        if (ei < grp->exprs.size()) {
          grp->exprs[ei].applied.Set(static_cast<int>(ri));
        }
      }
      if (restart) break;
    }
  }
  if (st.ok()) memo_->group(claimed).expanded = true;
  claimed_grp.expanding = false;
  return st;
}

Status Optimizer::ApplyTransRule(GroupId gid, size_t expr_idx,
                                 size_t rule_idx, bool* epoch_changed) {
  const TransRule& rule = rules_->trans_rules[rule_idx];
  uint64_t epoch = memo_->merge_epoch();
  const MExpr& m = memo_->group(gid).exprs[expr_idx];
  if (m.is_file || rule.lhs->op != m.op) return Status::OK();

  MatchBinding binding;
  binding.streams.assign(
      static_cast<size_t>(std::max(rule.lhs->MaxStreamVar(), 1)),
      std::make_pair(-1, -1));
  bool aborted = false;
  auto emit = [&]() -> Status {
    return FireBinding(gid, rule, rule_idx, binding);
  };
  PRAIRIE_RETURN_NOT_OK(EnumerateBindings(*rule.lhs, gid,
                                          static_cast<int>(expr_idx),
                                          &binding, emit, &aborted, epoch));
  *epoch_changed = aborted || memo_->merge_epoch() != epoch;
  return Status::OK();
}

Status Optimizer::EnumerateBindings(const PatNode& pat, GroupId gid,
                                    int expr_idx, MatchBinding* binding,
                                    EmitFn emit, bool* aborted,
                                    uint64_t epoch) {
  // Binds pattern node `pat` (known to be kOp) to expression `expr_idx` of
  // group `gid`, then matches its children.
  gid = memo_->Find(gid);
  const Group& grp = memo_->group(gid);
  if (expr_idx >= static_cast<int>(grp.exprs.size())) return Status::OK();
  const MExpr& m = grp.exprs[static_cast<size_t>(expr_idx)];
  if (m.is_file || m.dead || m.op != pat.op) return Status::OK();
  binding->op_nodes.emplace_back(pat.desc_slot, std::make_pair(gid, expr_idx));
  // A view of the expression's own child list: only Memo::Merge moves or
  // frees an MExpr, and it bumps the merge epoch, which MatchChildren
  // checks before every read of the view.
  Status st =
      MatchChildren(pat, m.children, 0, binding, emit, aborted, epoch);
  binding->op_nodes.pop_back();
  return st;
}

Status Optimizer::MatchChildren(const PatNode& pat,
                                std::span<const GroupId> child_groups,
                                size_t k, MatchBinding* binding, EmitFn emit,
                                bool* aborted, uint64_t epoch) {
  if (*aborted) return Status::OK();
  if (memo_->merge_epoch() != epoch) {
    *aborted = true;
    return Status::OK();
  }
  if (k == pat.children.size()) return emit();
  const PatNode& cp = *pat.children[k];
  GroupId cg = memo_->Find(child_groups[k]);
  if (cp.is_stream()) {
    binding->streams[static_cast<size_t>(cp.stream_var - 1)] =
        std::make_pair(cg, cp.desc_slot);
    return MatchChildren(pat, child_groups, k + 1, binding, emit, aborted,
                         epoch);
  }
  // Descend into the child group: it must be expanded for completeness.
  PRAIRIE_RETURN_NOT_OK(ExpandGroup(cg));
  if (memo_->merge_epoch() != epoch) {
    *aborted = true;
    return Status::OK();
  }
  cg = memo_->Find(cg);
  for (int ci = 0;; ++ci) {
    if (*aborted) return Status::OK();
    GroupId rep = memo_->Find(cg);
    const Group& cgrp = memo_->group(rep);
    if (ci >= static_cast<int>(cgrp.exprs.size())) break;
    auto next = [&]() -> Status {
      return MatchChildren(pat, child_groups, k + 1, binding, emit, aborted,
                           epoch);
    };
    PRAIRIE_RETURN_NOT_OK(
        EnumerateBindings(cp, rep, ci, binding, next, aborted, epoch));
  }
  return Status::OK();
}

Status Optimizer::FireBinding(GroupId gid, const TransRule& rule,
                              size_t rule_idx, const MatchBinding& binding) {
  ++stats_.trans_attempts;
  // Identity key of the source expression the pattern's root matched —
  // recorded as the new expression's provenance (indexes go stale under
  // merges; interned keys do not).
  algebra::DescriptorId src_key = algebra::kInvalidDescriptorId;
  if (!binding.op_nodes.empty()) {
    const auto [g, ei] = binding.op_nodes.front().second;
    src_key = memo_->group(g).exprs[static_cast<size_t>(ei)].arg_key;
  }
  TraceSpan span(this, common::TraceEventKind::kTransAttempt, memo_->Find(gid),
                 static_cast<int>(rule_idx), src_key);
  const size_t num_streams = binding.streams.size();
  BindingView& bv = TransBinding(rule_idx, num_streams);
  const algebra::DescriptorStore* store = memo_->store();
  for (size_t v = 0; v < num_streams; ++v) {
    auto [g, slot] = binding.streams[v];
    if (g < 0) continue;
    bv.streams[v] = g;
    if (slot >= 0) bv.slots[static_cast<size_t>(slot)] =
        store->Get(memo_->group(g).stream_desc);
  }
  // The enumeration aborts at the first merge, so the expressions it
  // matched are still at the indexes it recorded.
  for (const auto& [slot, expr] : binding.op_nodes) {
    const auto [g, ei] = expr;
    bv.slots[static_cast<size_t>(slot)] =
        store->Get(memo_->group(g).exprs[static_cast<size_t>(ei)].args);
  }
  if (rule.condition != nullptr) {
    PRAIRIE_ASSIGN_OR_RETURN(bool ok, rule.condition(bv));
    if (!ok) return Status::OK();
  }
  stats_.trans_matched[rule_idx] = 1;
  if (rule.apply != nullptr) {
    PRAIRIE_RETURN_NOT_OK(rule.apply(bv));
  }
  // Build the RHS children first, then insert the new root into `gid`.
  const PatNode& root = *rule.rhs;
  if (root.is_stream()) {
    return Status::RuleError("trans_rule '" + rule.name +
                             "' rewrites to a bare stream");
  }
  MExpr m;
  m.op = root.op;
  m.args = memo_->store()->Intern(bv.slots[static_cast<size_t>(root.desc_slot)]);
  m.src_rule = static_cast<int>(rule_idx);
  m.src_arg_key = src_key;
  m.children.reserve(root.children.size());
  for (const algebra::PatNodePtr& c : root.children) {
    PRAIRIE_ASSIGN_OR_RETURN(GroupId cg,
                             BuildRhs(*c, &bv, static_cast<int>(rule_idx)));
    m.children.push_back(cg);
  }
  PRAIRIE_ASSIGN_OR_RETURN(bool added, memo_->InsertInto(gid, std::move(m)));
  if (added) {
    ++stats_.trans_fired;
    TraceInstant(common::TraceEventKind::kTransFire, memo_->Find(gid),
                 static_cast<int>(rule_idx), src_key, 0);
  }
  return Status::OK();
}

Result<GroupId> Optimizer::BuildRhs(const PatNode& node, BindingView* bv,
                                    int src_rule) {
  if (node.is_stream()) {
    GroupId g = bv->streams[static_cast<size_t>(node.stream_var - 1)];
    if (g < 0) {
      return Status::RuleError("RHS stream variable ?" +
                               std::to_string(node.stream_var) +
                               " was not bound by the LHS");
    }
    return memo_->Find(g);
  }
  MExpr m;
  m.op = node.op;
  m.args =
      memo_->store()->Intern(bv->slots[static_cast<size_t>(node.desc_slot)]);
  // Interior RHS expressions have no single source expression, only the
  // rule that synthesized them.
  m.src_rule = src_rule;
  m.children.reserve(node.children.size());
  for (const algebra::PatNodePtr& c : node.children) {
    PRAIRIE_ASSIGN_OR_RETURN(GroupId cg, BuildRhs(*c, bv, src_rule));
    m.children.push_back(cg);
  }
  const algebra::DescriptorId desc = m.args;
  return memo_->GetOrCreateGroup(std::move(m), desc);
}

// ---------------------------------------------------------------------------
// Implementation phase
// ---------------------------------------------------------------------------

Result<Winner> Optimizer::OptimizeGroup(GroupId gid, const Descriptor& req,
                                        double limit) {
  gid = memo_->Find(gid);
  // Interned requirement id: id equality <=> requirement equality, so the
  // winner lookup needs no collision re-check against a stored descriptor.
  const algebra::DescriptorId rid = ReqId(req);
  if (std::optional<Winner> w = memo_->FindWinner(gid, rid)) {
    if (w->has_plan) return *w;
    if (w->failed_limit >= 0 && limit <= w->failed_limit) return *w;
  }
  // Exact-pair key: a mixed 64-bit hash could collide two distinct
  // (group, requirement) pairs and prune a feasible branch as "cyclic".
  const std::pair<GroupId, algebra::DescriptorId> progress_key(gid, rid);
  if (in_progress_.count(progress_key) > 0) {
    // Cyclic requirement path: infeasible along this branch; do not cache.
    ++stats_.cycle_guard_hits;
    TraceInstant(common::TraceEventKind::kCycleGuard, gid, -1, rid, 0);
    return Winner{};
  }
  in_progress_.insert(progress_key);
  TraceSpan span(this, common::TraceEventKind::kGroupOptimize, gid, -1, rid);

  Status st = ExpandGroup(gid);
  if (!st.ok()) {
    in_progress_.erase(progress_key);
    return st;
  }
  gid = memo_->Find(gid);

  Winner best;
  WinnerProv prov;
  double budget = options_.prune ? limit : kInf;
  bool limit_failure = false;

  for (size_t ei = 0;; ++ei) {
    GroupId rep = memo_->Find(gid);
    Group& grp = memo_->group(rep);
    if (ei >= grp.exprs.size()) break;
    if (grp.exprs[ei].dead) continue;
    if (grp.exprs[ei].is_file) {
      // A stored file is a zero-cost source; RET-class algorithms read it
      // directly, so any requirement is trivially satisfied here.
      if (!best.has_plan || best.cost > 0) {
        best.has_plan = true;
        best.cost = 0;
        best.plan = PhysNode::File(grp.exprs[ei].file,
                                   memo_->store()->Get(grp.stream_desc));
        budget = std::min(budget, 0.0);
        prov = WinnerProv{};
        prov.src_arg_key = grp.exprs[ei].arg_key;
      }
      continue;
    }
    // Copy: recursive OptimizeGroup calls may grow or merge groups and
    // invalidate references into exprs.
    const MExpr m = grp.exprs[ei];
    for (uint32_t ri : rules_->impl_rules_by_op[static_cast<size_t>(m.op)]) {
      const ImplRule& rule = rules_->impl_rules[ri];
      st = TryImplRule(rep, rid, m, rule, ri, req, &budget, &best, &prov,
                       &limit_failure);
      if (!st.ok()) {
        in_progress_.erase(progress_key);
        return st;
      }
    }
  }

  for (size_t enf_idx = 0; enf_idx < rules_->enforcers.size(); ++enf_idx) {
    const Enforcer& enf = rules_->enforcers[enf_idx];
    const Value& want = req.Get(enf.prop);
    if (want.is_null()) continue;
    if (want.type() == algebra::ValueType::kSort &&
        want.AsSort().is_dont_care()) {
      continue;
    }
    if (enf.applicable != nullptr && !enf.applicable(want)) continue;
    st = TryEnforcer(gid, rid, enf, enf_idx, req, &budget, &best, &prov,
                     &limit_failure);
    if (!st.ok()) {
      in_progress_.erase(progress_key);
      return st;
    }
  }

  in_progress_.erase(progress_key);
  gid = memo_->Find(gid);
  if (best.has_plan) {
    ++stats_.winners_selected;
    TraceInstant(common::TraceEventKind::kWinnerSelected, gid,
                 prov.impl_rule >= 0 ? prov.impl_rule : prov.enforcer, rid,
                 best.cost);
  } else {
    // Only a limit-induced failure is worth retrying with a larger budget.
    best.failed_limit =
        limit_failure ? limit : std::numeric_limits<double>::max();
  }
  // Overwrite: a failed_limit retry under a larger budget replaces the
  // earlier failure.
  return memo_->StoreWinner(gid, rid, std::move(best), std::move(prov));
}

Status Optimizer::TryImplRule(GroupId gid, algebra::DescriptorId rid,
                              const MExpr& m, const ImplRule& rule,
                              size_t rule_idx, const Descriptor& req,
                              double* budget, Winner* best,
                              WinnerProv* best_prov, bool* limit_failure) {
  ++stats_.impl_attempts;
  TraceSpan span(this, common::TraceEventKind::kImplAttempt, gid,
                 static_cast<int>(rule_idx), m.arg_key);
  const algebra::PropertySchema& schema = rules_->algebra->properties();
  BindingView bv = MakeBinding(rule.num_slots);
  // Bind LHS input descriptors to the child groups' stream descriptors
  // (copied out of the store: rule actions mutate their slots freely).
  for (int i = 0; i < rule.arity; ++i) {
    bv.slots[static_cast<size_t>(i)] = memo_->store()->Get(
        memo_->group(m.children[static_cast<size_t>(i)]).stream_desc);
  }
  // The operator descriptor carries the requirement (top-down propagation).
  Descriptor op_desc = memo_->store()->Get(m.args);
  for (PropertyId id : rules_->phys_props) {
    const Value& v = req.Get(id);
    if (!v.is_null()) op_desc.SetUnchecked(id, v);
  }
  bv.slots[static_cast<size_t>(rule.op_slot())] = op_desc;

  if (rule.condition != nullptr) {
    PRAIRIE_ASSIGN_OR_RETURN(bool ok, rule.condition(bv));
    if (!ok) return Status::OK();
  }
  stats_.impl_matched[rule_idx] = 1;
  if (rule.pre_opt != nullptr) {
    PRAIRIE_RETURN_NOT_OK(rule.pre_opt(bv).WithContext(
        "impl_rule '" + rule.name + "' pre-opt"));
  }

  // Optimize the inputs under the requirements the pre-opt section pushed
  // onto the RHS input descriptors.
  std::vector<PhysNodeRef> kids;
  kids.reserve(static_cast<size_t>(rule.arity));
  // (canonical child group, winner-table key) per optimized input — the
  // provenance links recorded if this alternative wins.
  std::vector<std::pair<GroupId, algebra::DescriptorId>> ckeys;
  ckeys.reserve(static_cast<size_t>(rule.arity));
  double child_sum = 0;
  for (int i = 0; i < rule.arity; ++i) {
    int rslot = rule.rhs_input_slots[static_cast<size_t>(i)];
    Descriptor child_req(&schema);
    for (PropertyId id : rules_->phys_props) {
      child_req.SetUnchecked(id, bv.slots[static_cast<size_t>(rslot)].Get(id));
    }
    double child_limit =
        options_.prune ? (*budget - child_sum) : kInf;
    if (options_.prune && child_limit < 0) {
      *limit_failure = true;
      ++stats_.prunes;
      TraceInstant(common::TraceEventKind::kPrune, gid,
                   static_cast<int>(rule_idx), rid, *budget);
      return Status::OK();
    }
    PRAIRIE_ASSIGN_OR_RETURN(
        Winner w, OptimizeGroup(m.children[static_cast<size_t>(i)], child_req,
                                child_limit));
    if (!w.has_plan) {
      if (w.failed_limit >= 0 &&
          w.failed_limit < std::numeric_limits<double>::max()) {
        *limit_failure = true;
      }
      return Status::OK();
    }
    ckeys.emplace_back(memo_->Find(m.children[static_cast<size_t>(i)]), w.rid);
    child_sum += w.cost;
    if (options_.prune && child_sum > *budget) {
      *limit_failure = true;
      ++stats_.prunes;
      TraceInstant(common::TraceEventKind::kPrune, gid,
                   static_cast<int>(rule_idx), rid, child_sum);
      return Status::OK();
    }
    // Report the input's optimized cost and delivered physical properties
    // back into its RHS descriptor for the post-opt section.
    Descriptor& rd = bv.slots[static_cast<size_t>(rslot)];
    rd.SetUnchecked(rules_->cost_prop, Value::Real(w.cost));
    for (PropertyId id : rules_->phys_props) {
      const Value& delivered = w.plan->desc.Get(id);
      if (!delivered.is_null()) rd.SetUnchecked(id, delivered);
    }
    kids.push_back(w.plan);
  }

  if (rule.post_opt != nullptr) {
    PRAIRIE_RETURN_NOT_OK(rule.post_opt(bv).WithContext(
        "impl_rule '" + rule.name + "' post-opt"));
  }
  ++stats_.plans_costed;

  Descriptor& alg_desc = bv.slots[static_cast<size_t>(rule.alg_slot)];
  const Value& cost_value = alg_desc.Get(rules_->cost_prop);
  if (cost_value.is_null()) {
    return Status::RuleError("impl_rule '" + rule.name +
                             "' did not assign a cost");
  }
  PRAIRIE_ASSIGN_OR_RETURN(double total, cost_value.ToReal());
  TraceInstant(common::TraceEventKind::kPlanCosted, gid,
               static_cast<int>(rule_idx), rid, total);

  // The produced plan must deliver the required physical properties.
  for (PropertyId id : rules_->phys_props) {
    if (!PropSatisfies(alg_desc.Get(id), req.Get(id))) return Status::OK();
  }
  if (options_.prune && total > *budget) {
    *limit_failure = true;
    ++stats_.prunes;
    TraceInstant(common::TraceEventKind::kPrune, gid,
                 static_cast<int>(rule_idx), rid, total);
    return Status::OK();
  }
  if (!best->has_plan || total < best->cost) {
    best->has_plan = true;
    best->cost = total;
    best->plan = PhysNode::Alg(rule.alg, alg_desc, total, std::move(kids));
    best->failed_limit = -1;
    *budget = std::min(*budget, total);
    best_prov->impl_rule = static_cast<int>(rule_idx);
    best_prov->enforcer = -1;
    best_prov->src_arg_key = m.arg_key;
    best_prov->src_children = m.children;
    best_prov->child_keys = std::move(ckeys);
  }
  return Status::OK();
}

Status Optimizer::TryEnforcer(GroupId gid, algebra::DescriptorId rid,
                              const Enforcer& enf, size_t enf_idx,
                              const Descriptor& req, double* budget,
                              Winner* best, WinnerProv* best_prov,
                              bool* limit_failure) {
  ++stats_.enforcer_attempts;
  TraceSpan span(this, common::TraceEventKind::kEnforcerAttempt,
                 memo_->Find(gid), static_cast<int>(enf_idx), rid);
  Descriptor relaxed = req;
  relaxed.SetUnchecked(enf.prop, Value::Null());
  double child_limit = options_.prune ? *budget : kInf;
  PRAIRIE_ASSIGN_OR_RETURN(Winner w,
                           OptimizeGroup(gid, relaxed, child_limit));
  if (!w.has_plan) {
    if (w.failed_limit >= 0 &&
        w.failed_limit < std::numeric_limits<double>::max()) {
      *limit_failure = true;
    }
    return Status::OK();
  }

  BindingView bv = MakeBinding(Enforcer::kNumSlots);
  gid = memo_->Find(gid);
  // Copy the stream descriptor out of the store (slots are mutable).
  Descriptor input = memo_->store()->Get(memo_->group(gid).stream_desc);
  input.SetUnchecked(rules_->cost_prop, Value::Real(w.cost));
  for (PropertyId id : rules_->phys_props) {
    const Value& delivered = w.plan->desc.Get(id);
    if (!delivered.is_null()) input.SetUnchecked(id, delivered);
  }
  bv.slots[Enforcer::kInputSlot] = input;
  Descriptor op_desc = memo_->store()->Get(memo_->group(gid).stream_desc);
  for (PropertyId id : rules_->phys_props) {
    const Value& v = req.Get(id);
    if (!v.is_null()) op_desc.SetUnchecked(id, v);
  }
  bv.slots[Enforcer::kOpSlot] = op_desc;

  if (enf.condition != nullptr) {
    PRAIRIE_ASSIGN_OR_RETURN(bool ok, enf.condition(bv));
    if (!ok) return Status::OK();
  }
  if (enf.pre_opt != nullptr) {
    PRAIRIE_RETURN_NOT_OK(
        enf.pre_opt(bv).WithContext("enforcer '" + enf.name + "' pre-opt"));
  }
  if (enf.post_opt != nullptr) {
    PRAIRIE_RETURN_NOT_OK(
        enf.post_opt(bv).WithContext("enforcer '" + enf.name + "' post-opt"));
  }
  Descriptor& alg_desc = bv.slots[Enforcer::kAlgSlot];
  const Value& cost_value = alg_desc.Get(rules_->cost_prop);
  if (cost_value.is_null()) {
    return Status::RuleError("enforcer '" + enf.name +
                             "' did not assign a cost");
  }
  PRAIRIE_ASSIGN_OR_RETURN(double total, cost_value.ToReal());
  for (PropertyId id : rules_->phys_props) {
    if (!PropSatisfies(alg_desc.Get(id), req.Get(id))) return Status::OK();
  }
  if (options_.prune && total > *budget) {
    *limit_failure = true;
    ++stats_.prunes;
    TraceInstant(common::TraceEventKind::kPrune, memo_->Find(gid),
                 static_cast<int>(enf_idx), rid, total);
    return Status::OK();
  }
  if (!best->has_plan || total < best->cost) {
    best->has_plan = true;
    best->cost = total;
    best->plan = PhysNode::Alg(enf.alg, alg_desc, total, {w.plan});
    best->failed_limit = -1;
    *budget = std::min(*budget, total);
    best_prov->impl_rule = -1;
    best_prov->enforcer = static_cast<int>(enf_idx);
    best_prov->src_arg_key = algebra::kInvalidDescriptorId;
    best_prov->src_children.clear();
    best_prov->child_keys.assign(1, {memo_->Find(gid), w.rid});
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Observability: trace emission and plan provenance
// ---------------------------------------------------------------------------

void Optimizer::TraceInstantSlow(common::TraceEventKind kind, GroupId gid,
                                 int rule, algebra::DescriptorId desc,
                                 double cost) {
  common::TraceEvent e;
  e.kind = kind;
  e.group = gid;
  e.rule = rule;
  e.desc = desc;
  e.depth = trace_depth_;
  e.tid = trace_tid_;
  e.cost = cost;
  e.ts_ns = common::TraceNowNs();
  options_.trace->Emit(e);
}

void Optimizer::TraceSpan::Begin(Optimizer* opt, common::TraceEventKind kind,
                                 GroupId gid, int rule,
                                 algebra::DescriptorId desc) {
  opt_ = opt;
  kind_ = kind;
  gid_ = gid;
  rule_ = rule;
  desc_ = desc;
  start_ns_ = common::TraceNowNs();
  ++opt_->trace_depth_;
}

void Optimizer::TraceSpan::End() {
  const uint64_t dur_ns = common::TraceNowNs() - start_ns_;
  --opt_->trace_depth_;
  common::TraceEvent e;
  e.kind = kind_;
  e.group = gid_;
  e.rule = rule_;
  e.desc = desc_;
  e.depth = opt_->trace_depth_;
  e.tid = opt_->trace_tid_;
  e.ts_ns = start_ns_;
  e.dur_ns = dur_ns;
  opt_->options_.trace->Emit(e);
}

// ---------------------------------------------------------------------------
// Observability: aggregate metrics
// ---------------------------------------------------------------------------

namespace {

using Stats = OptimizerStats;

// The engine's exported counters: each row is a series and the ledger
// quantity it accumulates. A new counter is one OptimizerStats field and
// one row here.
constexpr VolcanoMetrics::CounterRow kCounterRows[] = {
    // Search.
    {"prairie_trans_attempts_total",
     "Trans-rule binding condition evaluations",
     [](const Stats& s) -> uint64_t { return s.trans_attempts; }},
    {"prairie_trans_fired_total",
     "New logical expressions generated by trans rules",
     [](const Stats& s) -> uint64_t { return s.trans_fired; }},
    {"prairie_impl_attempts_total", "Impl-rule firings attempted",
     [](const Stats& s) -> uint64_t { return s.impl_attempts; }},
    {"prairie_enforcer_attempts_total", "Enforcer applications attempted",
     [](const Stats& s) -> uint64_t { return s.enforcer_attempts; }},
    {"prairie_plans_costed_total", "Physical alternatives fully costed",
     [](const Stats& s) -> uint64_t { return s.plans_costed; }},
    {"prairie_winners_selected_total",
     "(group, requirement) winners memoized",
     [](const Stats& s) -> uint64_t { return s.winners_selected; }},
    {"prairie_prunes_total", "Branch-and-bound cuts",
     [](const Stats& s) -> uint64_t { return s.prunes; }},
    {"prairie_cycle_guard_hits_total",
     "Cyclic (group, requirement) searches refused",
     [](const Stats& s) -> uint64_t { return s.cycle_guard_hits; }},
    // Memo.
    {"prairie_memo_groups_created_total", "Memo equivalence classes created",
     [](const Stats& s) -> uint64_t { return s.memo.groups_created; }},
    {"prairie_memo_groups_merged_total", "Memo equivalence-class merges",
     [](const Stats& s) -> uint64_t { return s.memo.groups_merged; }},
    {"prairie_memo_exprs_inserted_total",
     "Multi-expressions added to the memo",
     [](const Stats& s) -> uint64_t { return s.memo.exprs_inserted; }},
    {"prairie_memo_exprs_deduped_total",
     "Insert attempts resolved to an existing expr",
     [](const Stats& s) -> uint64_t { return s.memo.exprs_deduped; }},
    // Interning.
    {"prairie_intern_hits_total",
     "Descriptor-interning probes that found an existing descriptor",
     [](const Stats& s) -> uint64_t { return s.desc_hits; }, true},
    {"prairie_intern_misses_total",
     "Descriptor-interning probes that appended a new descriptor",
     [](const Stats& s) -> uint64_t {
       return s.desc_lookups - s.desc_hits;
     },
     true},
    // Plan cache, as seen by this engine (DESIGN.md §8); cache-global
    // figures (evictions, live entries) come from PlanCache::stats().
    {"prairie_plan_cache_hits_total", "Queries served from the plan cache",
     [](const Stats& s) -> uint64_t { return s.cache_hits; }},
    {"prairie_plan_cache_misses_total",
     "Plan-cache probes that fell through to the search",
     [](const Stats& s) -> uint64_t {
       return s.cache_probes - s.cache_hits;
     }},
    {"prairie_plan_cache_inserts_total", "Winning plans stored in the cache",
     [](const Stats& s) -> uint64_t { return s.cache_inserts; }},
    {"prairie_plan_cache_stale_total",
     "Stale (epoch-mismatched) cache entries dropped on probe",
     [](const Stats& s) -> uint64_t { return s.cache_stale_drops; }},
    {"prairie_plan_cache_param_hits_total",
     "Queries served by rebinding a parameterized skeleton entry",
     [](const Stats& s) -> uint64_t { return s.cache_param_hits; }},
    {"prairie_plan_cache_param_rejects_total",
     "Parameterized probes the selectivity guard band turned away",
     [](const Stats& s) -> uint64_t { return s.cache_param_rejects; }},
    {"prairie_plan_cache_param_inserts_total",
     "Winning plans stored under a parameterized skeleton key",
     [](const Stats& s) -> uint64_t { return s.cache_param_inserts; }},
};
static_assert(std::size(kCounterRows) == VolcanoMetrics::kNumCounters);

void Add(common::Counter* c, uint64_t delta) {
  if (c != nullptr && delta != 0) c->Inc(delta);
}

}  // namespace

std::span<const VolcanoMetrics::CounterRow, VolcanoMetrics::kNumCounters>
VolcanoMetrics::CounterRows() {
  return kCounterRows;
}

VolcanoMetrics VolcanoMetrics::ForRegistry(common::MetricsRegistry* registry) {
  VolcanoMetrics m;
  if (registry == nullptr) return m;
  m.queries = registry->GetCounter("prairie_queries_total",
                                   "Optimize() calls completed");
  for (size_t i = 0; i < kNumCounters; ++i) {
    m.counters[i] =
        registry->GetCounter(kCounterRows[i].name, kCounterRows[i].help);
  }
  m.memo_arena_bytes = registry->GetGauge(
      "prairie_memo_arena_bytes",
      "Arena bytes backing the memo's group table and expression lists");
  m.batch_runs = registry->GetCounter("prairie_batch_runs_total",
                                      "BatchOptimizer::OptimizeAll calls");
  m.batch_worker_merges = registry->GetCounter(
      "prairie_batch_worker_merges_total",
      "Per-worker trace/stat streams merged after a batch barrier");
  m.query_latency_ns = registry->GetHistogram(
      "prairie_query_latency_ns", "Per-query optimization wall time (ns)");
  m.plan_cache_probe_ns = registry->GetHistogram(
      "prairie_plan_cache_probe_ns",
      "Plan-cache key build + probe wall time (ns)");
  return m;
}

void VolcanoMetrics::AddStoreTraffic(
    const algebra::DescriptorStore::CounterSnapshot& before,
    const algebra::DescriptorStore::CounterSnapshot& after) const {
  OptimizerStats delta;
  delta.desc_lookups = after.lookups - before.lookups;
  delta.desc_hits = after.hits - before.hits;
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (kCounterRows[i].store_traffic) {
      Add(counters[i], kCounterRows[i].read(delta));
    }
  }
}

void Optimizer::FlushMetrics() {
  const VolcanoMetrics* mm = options_.metrics;
  if (mm == nullptr) return;
  // A concurrent store's interning traffic is added once per batch.
  const bool store_rows = !memo_->store()->concurrent();
  for (size_t i = 0; i < VolcanoMetrics::kNumCounters; ++i) {
    if (kCounterRows[i].store_traffic && !store_rows) continue;
    const uint64_t now = kCounterRows[i].read(stats_);
    Add(mm->counters[i], now - flushed_[i]);
    flushed_[i] = now;
  }
  if (mm->memo_arena_bytes != nullptr) {
    mm->memo_arena_bytes->Set(static_cast<int64_t>(stats_.memo.arena_bytes));
  }
}

std::string Optimizer::RenderExpr(const MExpr& m) const {
  if (m.is_file) return "file '" + m.file + "'";
  std::string out = rules_->algebra->name(m.op) + "(";
  std::vector<std::string> parts;
  parts.reserve(m.children.size());
  for (GroupId c : m.children) {
    parts.push_back("g" + std::to_string(memo_->Find(c)));
  }
  return out + common::Join(parts, ", ") + ")";
}

const MExpr* Optimizer::FindByArgKey(GroupId gid, algebra::DescriptorId key,
                                     const MExpr* exclude) const {
  if (key == algebra::kInvalidDescriptorId) return nullptr;
  const Group& grp = memo_->group(gid);
  for (const MExpr& m : grp.exprs) {
    if (!m.dead && &m != exclude && m.arg_key == key) return &m;
  }
  return nullptr;
}

const MExpr* Optimizer::FindImplemented(
    GroupId gid, algebra::DescriptorId key,
    const std::vector<GroupId>& children) const {
  if (key == algebra::kInvalidDescriptorId) return nullptr;
  const Group& grp = memo_->group(gid);
  for (const MExpr& m : grp.exprs) {
    if (m.dead || m.arg_key != key || m.children.size() != children.size()) {
      continue;
    }
    bool same = true;
    for (size_t i = 0; i < children.size(); ++i) {
      if (memo_->Find(m.children[i]) != memo_->Find(children[i])) {
        same = false;
        break;
      }
    }
    if (same) return &m;
  }
  // Children may have merged since the winner was recorded; fall back to
  // the first arg_key match rather than dropping the chain entirely.
  return FindByArgKey(gid, key, nullptr);
}

void Optimizer::ExplainGroup(GroupId gid, algebra::DescriptorId rid,
                             int indent, int depth, std::string* out) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (depth > 32) {
    *out += pad + "... (provenance walk depth limit)\n";
    return;
  }
  gid = memo_->Find(gid);
  const Group& grp = memo_->group(gid);
  auto wit = grp.winners.find(rid);
  if (wit == grp.winners.end() || !wit->second.has_plan) {
    // A later merge cleared this winner table; the plan itself is still
    // valid, only its provenance record is gone.
    *out += pad +
            common::StringPrintf("g%d: (winner not memoized)\n",
                                 static_cast<int>(gid));
    return;
  }
  const Winner& w = wit->second;
  auto pit = grp.prov.find(rid);
  if (pit == grp.prov.end()) {
    *out += pad + common::StringPrintf("g%d: cost=%.3f (no provenance)\n",
                                       static_cast<int>(gid), w.cost);
    return;
  }
  const WinnerProv& p = pit->second;
  std::string line =
      common::StringPrintf("g%d: cost=%.3f", static_cast<int>(gid), w.cost);
  if (p.enforcer >= 0) {
    line += " via enforcer '" +
            rules_->enforcers[static_cast<size_t>(p.enforcer)].name + "'";
  } else if (p.impl_rule >= 0) {
    line += " via impl_rule '" +
            rules_->impl_rules[static_cast<size_t>(p.impl_rule)].name + "'";
  } else {
    line += " via stored file";
  }
  *out += pad + line + "\n";
  // The implemented logical expression, then the trans-rule chain that
  // derived it (walked by interned identity key; robust to merges). The
  // head is resolved by arg_key plus child groups: arg_key alone cannot
  // tell apart expressions that differ only in child order, e.g. a
  // commuted join whose rewrite reuses the argument slice.
  const MExpr* src = FindImplemented(gid, p.src_arg_key, p.src_children);
  for (int guard = 0; src != nullptr && guard < 16; ++guard) {
    *out += pad + "  expr " + RenderExpr(*src);
    if (src->src_rule >= 0) {
      *out += "  [from trans_rule '" +
              rules_->trans_rules[static_cast<size_t>(src->src_rule)].name +
              "']";
    } else {
      *out += "  [from input query]";
    }
    *out += "\n";
    if (src->src_rule < 0 ||
        src->src_arg_key == algebra::kInvalidDescriptorId) {
      break;
    }
    src = FindByArgKey(gid, src->src_arg_key, src);
  }
  for (const auto& [cg, crid] : p.child_keys) {
    ExplainGroup(cg, crid, indent + 1, depth + 1, out);
  }
}

std::string Optimizer::ExplainWinner() const {
  if (explain_root_ < 0 || explain_req_ == algebra::kInvalidDescriptorId) {
    return "(no optimized query to explain)\n";
  }
  std::string out;
  ExplainGroup(explain_root_, explain_req_, 0, 0, &out);
  return out;
}

}  // namespace prairie::volcano
