// Plan cache: fingerprinted, sharded, epoch-invalidated reuse of
// optimized plans (DESIGN.md §8).
//
// Under production traffic most queries are structurally identical to one
// the optimizer already solved; industrial optimizers avoid re-running the
// search via a plan cache. This cache is keyed on a canonical query
// fingerprint: the structural serialization of the input operator tree
// over *interned* DescriptorIds (algebra::Expr::Fingerprint) plus the
// interned required physical property and the catalog's process-unique
// uid. Interned ids are canonical per DescriptorStore, so the key bytes
// are collision-free over one store — and every probe verifies the full
// key, never a hash alone, so a 64-bit fingerprint collision costs a miss,
// not a wrong plan.
//
// Concurrency follows the descriptor store's kConcurrent design: the table
// is split into mutex-guarded shards selected by fingerprint, so
// BatchOptimizer workers probe and insert concurrently with contention
// only within a shard. Entries hold the winning Plan (immutable
// shared-ownership PhysNode trees — a hit hands out a reference-counted
// copy without touching the search engine) and its cost.
//
// Eviction is per-shard LRU under a configurable entry/byte budget.
// Invalidation is epoch-based: entries record the owning catalog's
// version() at optimization start; a probe whose catalog has since been
// mutated (version mismatch) lazily drops the stale entry and reports a
// miss — stale plans are never served, and no mutation-time sweep of the
// cache is needed (COBRA-style sensitivity to catalog state).
//
// What is deliberately NOT cached: failed optimizations (no plan under the
// cost limit — the failure depends on the caller's limit, not just the
// query), and plans whose optimization raced a catalog mutation (the
// version moved between fingerprinting and insert).
//
// Parameterized keys extend exact matching to queries that differ only in
// literal constants: the key is built over a constant-stripped skeleton
// (algebra::ParameterizeQuery), the entry stores the winning plan with
// parameter markers in place, and a hit rebinds the probe's constants into
// a copy-on-write copy of the plan tree. An exact key is the same thing
// with zero slots: the query keeps its constants, and the plan is stored
// verbatim. A selectivity band guard (PlanCacheOptions::param_band) keeps
// parameter-sensitive plans from serving bindings they were not optimized
// for; out-of-band bindings optimize fresh and may add per-band variants
// under the same skeleton key.

#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "algebra/descriptor_store.h"
#include "algebra/expr.h"
#include "algebra/param.h"
#include "catalog/catalog.h"
#include "volcano/plan.h"

namespace prairie::volcano {

/// Value-aware selectivity estimate of a parameter binding: the product of
/// per-slot factors derived from catalog distinct-value counts and, for
/// range comparisons over integers, the constant's position within the
/// [0, distinct) domain. Deliberately separate from the value-blind
/// catalog::EstimateSelectivity the cost model uses (which must stay
/// constant-independent so skeletons fingerprint identically) — this one
/// exists only to judge whether two bindings are plan-compatible.
double ParamSelectivity(const std::vector<algebra::ParamSlot>& slots,
                        const catalog::Catalog& catalog);

/// \brief Sizing knobs. Defaults fit a service-sized working set while
/// keeping the TSan/unit suites able to force evictions cheaply.
struct PlanCacheOptions {
  /// Mutex-guarded shards; rounded up to a power of two, min 1, and capped
  /// at the largest power of two <= max_entries (every shard holds at
  /// least one entry). More shards = less probe contention between batch
  /// workers.
  size_t shards = 16;
  /// Total cached plans across shards (split evenly); 0 disables the
  /// entry budget.
  size_t max_entries = 4096;
  /// Approximate total retained bytes across shards (keys + plan trees +
  /// parameter vectors, split evenly); 0 disables the byte budget.
  size_t max_bytes = 64u << 20;
  /// Parameter-sensitivity band for skeleton entries (Cobra-style): a
  /// parameterized probe whose estimated binding selectivity differs from
  /// the cached entry's by more than this factor is rejected by the guard
  /// and falls through to fresh optimization (which may populate a
  /// per-band variant under the same skeleton key). 0 disables the guard.
  double param_band = 4.0;
};

/// \brief Monotonic traffic counters (relaxed atomics; exact under any
/// concurrency). The last four count only probes and inserts with slots.
struct PlanCacheStats {
  uint64_t probes = 0;       ///< Probe() calls.
  uint64_t hits = 0;         ///< Probes served from the cache.
  uint64_t misses = 0;       ///< Probes that found nothing usable.
  uint64_t stale_drops = 0;  ///< Entries dropped for an epoch mismatch.
  uint64_t inserts = 0;      ///< Entries stored.
  uint64_t evictions = 0;    ///< Entries evicted by the LRU budgets.
  uint64_t skipped_inserts = 0;  ///< Inserts refused (raced a mutation).
  uint64_t param_hits = 0;   ///< Probes with slots served from the cache.
  uint64_t param_inserts = 0;  ///< Rebindable skeleton entries stored.
  uint64_t unrebindable_inserts = 0;  ///< Skeleton entries stored
                                      ///< exact-only (plan constants could
                                      ///< not be attributed to slots).
  uint64_t sensitivity_rejects = 0;  ///< Probes a guard band turned away.
};

/// \brief Sharded, LRU-evicted, epoch-invalidated cache of winning plans.
///
/// A cache is bound to ONE DescriptorStore: keys embed that store's
/// interned ids, so they are meaningless against any other store. The
/// engine refuses (bypasses) a cache whose store does not match its own.
/// Safe for concurrent Probe/Insert from any number of threads.
class PlanCache {
 public:
  explicit PlanCache(const algebra::DescriptorStore* store,
                     PlanCacheOptions options = PlanCacheOptions());

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The descriptor store this cache's keys are interned through.
  const algebra::DescriptorStore* store() const { return store_; }

  /// \brief A computed cache key: the 64-bit fingerprint (shard/bucket
  /// selector) plus the canonical serialization it hashes (the verified
  /// full key). `epoch` snapshots catalog.version() at key-build time —
  /// Insert() refuses the plan if the catalog moved past it.
  struct Key {
    uint64_t fingerprint = 0;
    std::string bytes;
    uint64_t catalog_uid = 0;
    uint64_t epoch = 0;
  };

  /// Builds the canonical key for optimizing `tree` under the interned
  /// requirement `req_id` against `catalog`, interning through `store`
  /// (must be the cache's store for the key to be usable). Cost is one
  /// tree walk with all-hit interning probes — the quantity warm-path
  /// latency is made of.
  static Key MakeKey(const algebra::Expr& tree, algebra::DescriptorId req_id,
                     const catalog::Catalog& catalog,
                     algebra::DescriptorStore* store);

  /// \brief One probe/insert context: the slots the key's query was
  /// parameterized into (values included) and the binding's selectivity
  /// estimate (ParamSelectivity) for the sensitivity guard. No slots means
  /// an exact key, built over the query with its constants.
  struct ParamInfo {
    std::vector<algebra::ParamSlot> slots;
    double guard_est = 1.0;
  };

  /// Probes `key` for an entry serving `info`'s binding, dropping entries
  /// whose epoch is not `catalog.version()` (stale_drops, `*dropped_stale`).
  /// A rebindable entry within the sensitivity band hits by rebinding the
  /// probe's constants into a copy-on-write copy of its plan; any other
  /// entry hits when its recorded constants equal the probe's (with zero
  /// slots, both are empty). Out-of-band entries stay and set
  /// `*guard_rejected`: optimize fresh, and Insert adds a band variant.
  bool Probe(const Key& key, const catalog::Catalog& catalog,
             const ParamInfo& info, Plan* hit,
             bool* dropped_stale = nullptr, bool* guard_rejected = nullptr);

  /// Stores the winner for `key`, optimized with `info`'s binding; refused
  /// (skipped_inserts) when the catalog moved past key.epoch. A zero-slot
  /// plan is stored verbatim. Otherwise its constants are matched back to
  /// the slots (algebra::SlotMatcher): a plan using every slot exactly and
  /// unambiguously is stored with markers in place (param_inserts), any
  /// other verbatim for this binding only (unrebindable_inserts), so a plan
  /// is never rebound unless its constants provably descend from the
  /// query's. Replaces the band-compatible rebindable variant or the
  /// equal-values verbatim one; distinct bands accumulate under one key.
  void Insert(const Key& key, const catalog::Catalog& catalog,
              const ParamInfo& info, const Plan& plan);

  PlanCacheStats stats() const;

  /// Live entries / approximate retained bytes across all shards.
  size_t size() const;
  size_t bytes() const;

 private:
  struct Entry {
    std::string key_bytes;
    uint64_t fingerprint = 0;
    uint64_t epoch = 0;
    Plan plan;
    size_t bytes = 0;  ///< Approximate retained size of this entry.
    /// Plan tree carries markers; hits rebind the probe's constants.
    bool rebindable = false;
    /// The binding the plan was optimized for (slot order; empty for an
    /// exact key). Rebindable entries keep it for diagnostics; verbatim
    /// entries match on it.
    std::vector<algebra::Scalar> values;
    /// ParamSelectivity of `values` at insert time (guard band anchor).
    double guard_est = 1.0;
  };

  /// One shard: an LRU list (front = most recent) indexed by fingerprint.
  /// A multimap tolerates distinct keys sharing a fingerprint.
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;
    std::unordered_multimap<uint64_t, std::list<Entry>::iterator> by_fp;
    size_t bytes = 0;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    return shards_[(fingerprint >> 48) & (num_shards_ - 1)];
  }
  static size_t EntryBytes(const Entry& e);
  /// Unlinks `it` from `sh` (caller holds sh.mu and has located the
  /// matching by_fp slot via `fp_it`).
  void Erase(Shard& sh,
             std::unordered_multimap<uint64_t,
                                     std::list<Entry>::iterator>::iterator
                 fp_it);
  void EvictOver(Shard& sh);

  const algebra::DescriptorStore* store_;
  PlanCacheOptions options_;
  size_t num_shards_ = 1;
  size_t shard_entry_budget_ = 0;  ///< 0 = unlimited.
  size_t shard_byte_budget_ = 0;   ///< 0 = unlimited.
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_drops_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> skipped_inserts_{0};
  std::atomic<uint64_t> param_hits_{0};
  std::atomic<uint64_t> param_inserts_{0};
  std::atomic<uint64_t> unrebindable_inserts_{0};
  std::atomic<uint64_t> sensitivity_rejects_{0};
};

}  // namespace prairie::volcano
