#include "volcano/plancache.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <variant>

#include "common/hash.h"

namespace prairie::volcano {

namespace {

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

double Clamp01(double f) {
  return f < 1e-9 ? 1e-9 : (f > 1.0 ? 1.0 : f);
}

/// Swaps a comparison so the attribute reads on the left: `c < attr` is
/// `attr > c`.
algebra::CmpOp MirrorOp(algebra::CmpOp op) {
  switch (op) {
    case algebra::CmpOp::kLt:
      return algebra::CmpOp::kGt;
    case algebra::CmpOp::kLe:
      return algebra::CmpOp::kGe;
    case algebra::CmpOp::kGt:
      return algebra::CmpOp::kLt;
    case algebra::CmpOp::kGe:
      return algebra::CmpOp::kLe;
    default:
      return op;
  }
}

/// True when two binding selectivities are within the guard band.
bool BandCompatible(double a, double b, double band) {
  if (band <= 0) return true;
  const double lo = std::min(a, b);
  const double hi = std::max(a, b);
  return lo > 0 && hi / lo <= band;
}

/// Rebinds `values` into a plan subtree, copy-on-write: marker-free
/// subtrees are shared with the cached entry, never copied. Sets *ok false
/// on an out-of-range ordinal (the entry cannot serve this binding).
PhysNodeRef RebindNode(const PhysNodeRef& node,
                       const std::vector<algebra::Scalar>& values, bool* ok) {
  bool changed = false;
  std::vector<PhysNodeRef> kids;
  kids.reserve(node->children.size());
  for (const PhysNodeRef& c : node->children) {
    PhysNodeRef r = RebindNode(c, values, ok);
    if (!*ok) return nullptr;
    if (r.get() != c.get()) changed = true;
    kids.push_back(std::move(r));
  }
  algebra::Descriptor desc = node->desc;
  if (desc.valid()) {
    const int n = desc.schema()->size();
    for (algebra::PropertyId id = 0; id < n; ++id) {
      const algebra::Value& v = desc.Get(id);
      if (v.type() != algebra::ValueType::kPred) continue;
      algebra::PredicateRef bound = algebra::BindPredicate(v.AsPred(), values);
      if (bound == nullptr) {
        *ok = false;
        return nullptr;
      }
      if (bound.get() == v.AsPred().get()) continue;
      desc.SetUnchecked(id, algebra::Value::Pred(std::move(bound)));
      changed = true;
    }
  }
  if (!changed) return node;
  auto copy = std::make_shared<PhysNode>(*node);
  copy->desc = std::move(desc);
  copy->children = std::move(kids);
  return copy;
}

/// Rewrites a plan subtree's constants into parameter markers per
/// `matcher` (insert-time inverse of RebindNode). Same copy-on-write
/// sharing; *ok false when a constant matches no slot.
PhysNodeRef ParameterizeNode(const PhysNodeRef& node,
                             const algebra::SlotMatcher& matcher,
                             std::vector<bool>* used, bool* ok) {
  bool changed = false;
  std::vector<PhysNodeRef> kids;
  kids.reserve(node->children.size());
  for (const PhysNodeRef& c : node->children) {
    PhysNodeRef r = ParameterizeNode(c, matcher, used, ok);
    if (!*ok) return nullptr;
    if (r.get() != c.get()) changed = true;
    kids.push_back(std::move(r));
  }
  algebra::Descriptor desc = node->desc;
  if (desc.valid()) {
    const int n = desc.schema()->size();
    for (algebra::PropertyId id = 0; id < n; ++id) {
      const algebra::Value& v = desc.Get(id);
      if (v.type() != algebra::ValueType::kPred) continue;
      algebra::PredicateRef p =
          algebra::ParameterizePredicate(v.AsPred(), matcher, used, ok);
      if (!*ok) return nullptr;
      if (p.get() == v.AsPred().get()) continue;
      desc.SetUnchecked(id, algebra::Value::Pred(std::move(p)));
      changed = true;
    }
  }
  if (!changed) return node;
  auto copy = std::make_shared<PhysNode>(*node);
  copy->desc = std::move(desc);
  copy->children = std::move(kids);
  return copy;
}

}  // namespace

double ParamSelectivity(const std::vector<algebra::ParamSlot>& slots,
                        const catalog::Catalog& catalog) {
  double sel = 1.0;
  for (const algebra::ParamSlot& s : slots) {
    const double d =
        static_cast<double>(std::max<int64_t>(1, catalog.DistinctValues(s.attr)));
    const algebra::CmpOp op = s.const_on_left ? MirrorOp(s.op) : s.op;
    const int64_t* iv = std::get_if<int64_t>(&s.value.v);
    double f;
    switch (op) {
      case algebra::CmpOp::kEq:
        f = 1.0 / d;
        break;
      case algebra::CmpOp::kNe:
        f = 1.0 - 1.0 / d;
        break;
      case algebra::CmpOp::kLt:
      case algebra::CmpOp::kLe:
        // Integer domains are modeled as [0, distinct): the fraction below
        // the constant is its position in the domain.
        f = iv != nullptr ? static_cast<double>(*iv) / d : 1.0 / 3.0;
        break;
      case algebra::CmpOp::kGt:
      case algebra::CmpOp::kGe:
        f = iv != nullptr ? 1.0 - static_cast<double>(*iv) / d : 1.0 / 3.0;
        break;
      default:
        f = 1.0 / 3.0;
        break;
    }
    sel *= Clamp01(f);
  }
  return Clamp01(sel);
}

PlanCache::PlanCache(const algebra::DescriptorStore* store,
                     PlanCacheOptions options)
    : store_(store), options_(options) {
  num_shards_ = std::bit_ceil(std::max<size_t>(1, options_.shards));
  // Each shard keeps at least one entry, so more shards than max_entries
  // would let the cache hold more plans than its total budget.
  if (options_.max_entries > 0) {
    num_shards_ = std::min(num_shards_, std::bit_floor(options_.max_entries));
  }
  shard_entry_budget_ =
      options_.max_entries == 0
          ? 0
          : std::max<size_t>(1, options_.max_entries / num_shards_);
  shard_byte_budget_ =
      options_.max_bytes == 0
          ? 0
          : std::max<size_t>(1, options_.max_bytes / num_shards_);
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

PlanCache::Key PlanCache::MakeKey(const algebra::Expr& tree,
                                  algebra::DescriptorId req_id,
                                  const catalog::Catalog& catalog,
                                  algebra::DescriptorStore* store) {
  Key key;
  key.catalog_uid = catalog.uid();
  // Snapshot the epoch BEFORE walking the tree: if the catalog mutates
  // anywhere between here and Insert(), the insert is refused.
  key.epoch = catalog.version();
  AppendU64(key.catalog_uid, &key.bytes);
  AppendU64(static_cast<uint64_t>(static_cast<int64_t>(req_id)), &key.bytes);
  const uint64_t tree_hash = tree.Fingerprint(store, &key.bytes);
  uint64_t h = common::HashCombine(key.catalog_uid, tree_hash);
  h = common::HashCombine(h, static_cast<uint64_t>(static_cast<int64_t>(req_id)));
  key.fingerprint = h;
  return key;
}

size_t PlanCache::EntryBytes(const Entry& e) {
  // Approximation good enough to budget by: the key bytes, the list/map node overhead, the plan tree at a nominal
  // per-node footprint (PhysNode + descriptor values + child vector), and
  // — for parameterized entries — the recorded binding vector including
  // out-of-line string payloads.
  constexpr size_t kPerNode = 256;
  constexpr size_t kFixed = 160;
  const size_t plan_nodes =
      e.plan.root == nullptr
          ? 0
          : static_cast<size_t>(e.plan.root->AlgCount()) + 1;
  size_t param_bytes = e.values.size() * sizeof(algebra::Scalar);
  for (const algebra::Scalar& s : e.values) {
    if (const std::string* str = std::get_if<std::string>(&s.v)) {
      param_bytes += str->size();
    }
  }
  return kFixed + e.key_bytes.size() + plan_nodes * kPerNode + param_bytes;
}

bool PlanCache::Probe(const Key& key, const catalog::Catalog& catalog,
                      const ParamInfo& info, Plan* hit, bool* dropped_stale,
                      bool* guard_rejected) {
  probes_.fetch_add(1, std::memory_order_relaxed);
  if (dropped_stale != nullptr) *dropped_stale = false;
  if (guard_rejected != nullptr) *guard_rejected = false;
  if (key.catalog_uid != catalog.uid()) {
    // A key built against a different catalog can never match an entry
    // for this one (the uid leads the key bytes); don't even look.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t now_version = catalog.version();
  std::vector<algebra::Scalar> values;
  values.reserve(info.slots.size());
  for (const algebra::ParamSlot& s : info.slots) values.push_back(s.value);

  bool saw_stale = false;
  bool saw_guard_reject = false;
  bool found = false;
  bool rebind = false;
  Plan plan;
  {
    Shard& sh = ShardFor(key.fingerprint);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto [begin, end] = sh.by_fp.equal_range(key.fingerprint);
    // Several variants may share one skeleton key (per-band plans,
    // exact-only fallbacks); scan them all. The careful iterator advance
    // keeps `it` valid across Erase (multimap erase invalidates only the
    // erased iterator).
    for (auto it = begin; it != end;) {
      auto cur = it++;
      const Entry& e = *cur->second;
      if (e.key_bytes != key.bytes) continue;  // fingerprint collision
      if (e.epoch != now_version) {
        // Lazy epoch invalidation: the catalog mutated since this plan was
        // optimized. Drop the entry; the caller re-optimizes and re-inserts
        // under the current epoch.
        Erase(sh, cur);
        saw_stale = true;
        continue;
      }
      if (e.rebindable && !BandCompatible(e.guard_est, info.guard_est,
                                          options_.param_band)) {
        saw_guard_reject = true;
        continue;
      }
      // A verbatim entry serves only the binding it was optimized for; with
      // zero slots, that is the query itself.
      if (!e.rebindable && e.values != values) continue;
      sh.lru.splice(sh.lru.begin(), sh.lru, cur->second);  // refresh recency
      plan = e.plan;
      rebind = e.rebindable;
      found = true;
      break;
    }
  }
  if (saw_stale) {
    stale_drops_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_stale != nullptr) *dropped_stale = true;
  }
  // Rebind outside the shard lock: the cached tree is immutable and
  // reference-counted, so it stays valid even if the entry is evicted
  // concurrently.
  if (rebind) plan.root = RebindNode(plan.root, values, &found);
  if (found) {
    *hit = std::move(plan);
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (!info.slots.empty()) {
      param_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  if (saw_guard_reject && !info.slots.empty()) {
    sensitivity_rejects_.fetch_add(1, std::memory_order_relaxed);
    if (guard_rejected != nullptr) *guard_rejected = true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void PlanCache::Insert(const Key& key, const catalog::Catalog& catalog,
                       const ParamInfo& info, const Plan& plan) {
  if (key.catalog_uid != catalog.uid() || catalog.version() != key.epoch) {
    // The plan may reflect mixed catalog state: never serve it.
    skipped_inserts_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const bool parameterized = !info.slots.empty();
  Entry entry;
  entry.key_bytes = key.bytes;
  entry.fingerprint = key.fingerprint;
  entry.epoch = key.epoch;
  entry.guard_est = info.guard_est;
  entry.values.reserve(info.slots.size());
  for (const algebra::ParamSlot& s : info.slots) {
    entry.values.push_back(s.value);
  }

  // Try to put markers back into the winning plan. Only a plan whose
  // constants are all accounted for — every stripped constant attributed
  // to exactly the slot it came from, every slot's constant found — may be
  // rebound for other bindings; anything else (a rule synthesized a new
  // constant, two slots are indistinguishable, a predicate was optimized
  // away) is cached for this exact binding only. Collisions cost misses,
  // never wrong plans.
  if (parameterized && plan.root != nullptr) {
    algebra::SlotMatcher matcher(info.slots);
    bool ok = !matcher.ambiguous();
    std::vector<bool> used(info.slots.size(), false);
    PhysNodeRef root;
    if (ok) root = ParameterizeNode(plan.root, matcher, &used, &ok);
    for (bool u : used) ok = ok && u;
    if (ok) {
      entry.plan = Plan{std::move(root), plan.cost};
      entry.rebindable = true;
    }
  }
  if (!entry.rebindable) entry.plan = plan;
  entry.bytes = EntryBytes(entry);

  Shard& sh = ShardFor(key.fingerprint);
  std::lock_guard<std::mutex> lock(sh.mu);
  // Replace the variant this entry supersedes: the rebindable one within
  // the same band, or the verbatim one for the same binding. Other
  // variants stay (per-band plans accumulate under the LRU budgets).
  auto [begin, end] = sh.by_fp.equal_range(key.fingerprint);
  for (auto it = begin; it != end; ++it) {
    const Entry& e = *it->second;
    if (e.key_bytes != key.bytes) continue;
    if (entry.rebindable
            ? (e.rebindable && BandCompatible(e.guard_est, entry.guard_est,
                                              options_.param_band))
            : (!e.rebindable && e.values == entry.values)) {
      Erase(sh, it);
      break;
    }
  }
  const bool rebindable = entry.rebindable;
  sh.lru.push_front(std::move(entry));
  sh.by_fp.emplace(key.fingerprint, sh.lru.begin());
  sh.bytes += sh.lru.front().bytes;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (rebindable) {
    param_inserts_.fetch_add(1, std::memory_order_relaxed);
  } else if (parameterized) {
    unrebindable_inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  EvictOver(sh);
}

void PlanCache::Erase(
    Shard& sh,
    std::unordered_multimap<uint64_t, std::list<Entry>::iterator>::iterator
        fp_it) {
  sh.bytes -= fp_it->second->bytes;
  sh.lru.erase(fp_it->second);
  sh.by_fp.erase(fp_it);
}

void PlanCache::EvictOver(Shard& sh) {
  while (!sh.lru.empty() &&
         ((shard_entry_budget_ != 0 && sh.lru.size() > shard_entry_budget_) ||
          (shard_byte_budget_ != 0 && sh.bytes > shard_byte_budget_))) {
    const Entry& victim = sh.lru.back();
    auto [begin, end] = sh.by_fp.equal_range(victim.fingerprint);
    for (auto it = begin; it != end; ++it) {
      if (it->second == std::prev(sh.lru.end())) {
        sh.by_fp.erase(it);
        break;
      }
    }
    sh.bytes -= victim.bytes;
    sh.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.probes = probes_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stale_drops = stale_drops_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.skipped_inserts = skipped_inserts_.load(std::memory_order_relaxed);
  s.param_hits = param_hits_.load(std::memory_order_relaxed);
  s.param_inserts = param_inserts_.load(std::memory_order_relaxed);
  s.unrebindable_inserts =
      unrebindable_inserts_.load(std::memory_order_relaxed);
  s.sensitivity_rejects =
      sensitivity_rejects_.load(std::memory_order_relaxed);
  return s;
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    n += shards_[i].lru.size();
  }
  return n;
}

size_t PlanCache::bytes() const {
  size_t n = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    n += shards_[i].bytes;
  }
  return n;
}

}  // namespace prairie::volcano
