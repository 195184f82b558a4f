// Plan-cache tests (DESIGN.md §8): fingerprint canonicality, warm-hit
// correctness against a fresh search across Q1..Q8, epoch invalidation
// (stale entries are never served, raced inserts are refused), per-shard
// LRU eviction under entry/byte budgets, catalog-uid isolation, and the
// foreign-store bypass.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/descriptor_store.h"
#include "algebra/param.h"
#include "optimizers/oodb.h"
#include "p2v/translator.h"
#include "volcano/batch.h"
#include "volcano/engine.h"
#include "volcano/plancache.h"
#include "workload/workload.h"

namespace prairie {
namespace {

using algebra::DescriptorStore;
using algebra::StoreMode;
using volcano::BatchOptimizer;
using volcano::BatchOptions;
using volcano::BatchQuery;
using volcano::Optimizer;
using volcano::OptimizerOptions;
using volcano::Plan;
using volcano::PlanCache;
using volcano::PlanCacheOptions;
using volcano::PlanCacheStats;

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)             \
  auto PRAIRIE_CONCAT(_res_, __LINE__) = (rexpr);    \
  ASSERT_TRUE(PRAIRIE_CONCAT(_res_, __LINE__).ok())  \
      << PRAIRIE_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(PRAIRIE_CONCAT(_res_, __LINE__)).ValueUnsafe();

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(core::RuleSet prairie_rules, opt::BuildOodbPrairie());
    ASSERT_OK_AND_ASSIGN(rules_, p2v::Translate(prairie_rules, nullptr));
  }

  workload::Workload MakeQ(int qnum, int joins, uint64_t seed) {
    auto w = workload::MakeWorkload(
        *rules_->algebra, workload::PaperQuery(qnum, joins, seed));
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return std::move(*w);
  }

  /// The plan with every node's descriptor: PhysNode::ToString names only
  /// the algorithms, so a plan rebound with a wrong constant would match.
  std::string Render(const Plan& plan) {
    return plan.root->ToExpr(*rules_->algebra)->TreeString(*rules_->algebra);
  }

  std::shared_ptr<volcano::RuleSet> rules_;
};

// ---------------------------------------------------------------------------
// Fingerprints.

TEST_F(PlanCacheTest, FingerprintIsDeterministicAndStructural) {
  workload::Workload w = MakeQ(5, 3, 7);
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);

  std::string a, b;
  const uint64_t ha = w.query->Fingerprint(&store, &a);
  const uint64_t hb = w.query->Fingerprint(&store, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ha, hb);
  EXPECT_FALSE(a.empty());

  // A structurally different query of the same family serializes to
  // different bytes.
  workload::Workload other = MakeQ(5, 3, 8);
  std::string c;
  other.query->Fingerprint(&store, &c);
  EXPECT_NE(a, c);

  // An equal clone serializes identically.
  algebra::ExprPtr clone = w.query->Clone();
  std::string d;
  const uint64_t hd = clone->Fingerprint(&store, &d);
  EXPECT_EQ(a, d);
  EXPECT_EQ(ha, hd);
}

TEST_F(PlanCacheTest, KeysDifferByRequirementAndCatalog) {
  workload::Workload w = MakeQ(1, 2, 3);
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  const PlanCache::Key k1 = PlanCache::MakeKey(*w.query, 1, w.catalog, &store);
  const PlanCache::Key k2 = PlanCache::MakeKey(*w.query, 2, w.catalog, &store);
  EXPECT_NE(k1.bytes, k2.bytes);

  catalog::Catalog copy = w.catalog;  // identical content, fresh uid
  const PlanCache::Key k3 = PlanCache::MakeKey(*w.query, 1, copy, &store);
  EXPECT_NE(k1.bytes, k3.bytes);
  EXPECT_NE(k1.catalog_uid, k3.catalog_uid);
}

// ---------------------------------------------------------------------------
// Warm-hit correctness: cached answers must equal a fresh search.

TEST_F(PlanCacheTest, WarmHitPlansEqualFreshReferenceAcrossQ1Q8) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);
  for (int q = 1; q <= 8; ++q) {
    workload::Workload w = MakeQ(q, 2, 11);

    // Fresh reference: no cache anywhere near this optimizer.
    Optimizer ref(rules_.get(), &w.catalog, {});
    auto ref_plan = ref.Optimize(*w.query);
    ASSERT_TRUE(ref_plan.ok()) << "Q" << q << ": "
                               << ref_plan.status().ToString();

    OptimizerOptions options;
    options.plan_cache = &cache;

    // Cold pass fills the cache.
    Optimizer cold(rules_.get(), &w.catalog, options, &store);
    auto cold_plan = cold.Optimize(*w.query);
    ASSERT_TRUE(cold_plan.ok());
    EXPECT_FALSE(cold.stats().plan_from_cache);
    EXPECT_EQ(cold.stats().cache_probes, 1u);
    EXPECT_EQ(cold.stats().cache_hits, 0u);

    // Warm pass is served from the cache and must match the reference
    // byte for byte.
    Optimizer warm(rules_.get(), &w.catalog, options, &store);
    auto warm_plan = warm.Optimize(*w.query);
    ASSERT_TRUE(warm_plan.ok());
    EXPECT_TRUE(warm.stats().plan_from_cache) << "Q" << q;
    EXPECT_EQ(warm.stats().cache_hits, 1u);
    EXPECT_EQ(warm_plan->cost, ref_plan->cost) << "Q" << q;
    EXPECT_EQ(Render(*warm_plan), Render(*ref_plan)) << "Q" << q;
    EXPECT_EQ(Render(*warm_plan), Render(*cold_plan)) << "Q" << q;
  }
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 8u);
  EXPECT_EQ(stats.inserts, 8u);
  EXPECT_EQ(stats.stale_drops, 0u);
}

// ---------------------------------------------------------------------------
// Epoch invalidation.

TEST_F(PlanCacheTest, StaleEntriesAreNeverServedAfterCatalogMutation) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);
  workload::Workload w = MakeQ(2, 2, 5);
  OptimizerOptions options;
  options.plan_cache = &cache;

  Optimizer cold(rules_.get(), &w.catalog, options, &store);
  ASSERT_TRUE(cold.Optimize(*w.query).ok());
  ASSERT_EQ(cache.stats().inserts, 1u);

  // Mutate the catalog: every cached plan for it is now stale.
  catalog::StoredFile* c1 = w.catalog.MutableFile("C1");
  ASSERT_NE(c1, nullptr);
  c1->set_cardinality(c1->cardinality() * 100);

  Optimizer after(rules_.get(), &w.catalog, options, &store);
  auto plan = after.Optimize(*w.query);
  ASSERT_TRUE(plan.ok());
  // The probe found the entry, saw the epoch mismatch, dropped it, and
  // the full search ran against the mutated statistics.
  EXPECT_FALSE(after.stats().plan_from_cache);
  EXPECT_EQ(cache.stats().stale_drops, 1u);

  // The re-optimized plan must equal a fresh cache-less search over the
  // mutated catalog.
  Optimizer ref(rules_.get(), &w.catalog, {});
  auto ref_plan = ref.Optimize(*w.query);
  ASSERT_TRUE(ref_plan.ok());
  EXPECT_EQ(plan->cost, ref_plan->cost);
  EXPECT_EQ(Render(*plan), Render(*ref_plan));

  // And the re-insert happened under the new epoch: the next pass hits.
  Optimizer warm(rules_.get(), &w.catalog, options, &store);
  auto warm_plan = warm.Optimize(*w.query);
  ASSERT_TRUE(warm_plan.ok());
  EXPECT_TRUE(warm.stats().plan_from_cache);
  EXPECT_EQ(Render(*warm_plan), Render(*ref_plan));
}

TEST_F(PlanCacheTest, InsertIsRefusedWhenCatalogMovedPastTheEpoch) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);
  workload::Workload w = MakeQ(1, 2, 5);

  const PlanCache::Key key =
      PlanCache::MakeKey(*w.query, 0, w.catalog, &store);
  // The catalog moves between fingerprinting and insert — the plan may
  // reflect mixed state and must not be stored.
  w.catalog.BumpVersion();
  cache.Insert(key, w.catalog, {}, Plan{});
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().skipped_inserts, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PlanCacheTest, CatalogMutationMidBatchNeverServesStalePlans) {
  // Shared cache over a batch; the catalog mutates between batch rounds.
  // Every post-mutation result must equal a fresh cache-less reference
  // computed against the mutated catalog.
  std::vector<workload::Workload> workloads;
  for (int q = 1; q <= 8; ++q) workloads.push_back(MakeQ(q, 2, 3));
  std::vector<BatchQuery> queries;
  for (const auto& w : workloads) {
    queries.push_back(BatchQuery{w.query.get(), &w.catalog});
  }

  BatchOptions options;
  options.jobs = 4;
  options.plan_cache_entries = 1024;
  BatchOptimizer batch(rules_.get(), options);
  auto round1 = batch.OptimizeAll(queries);
  for (const auto& r : round1) ASSERT_TRUE(r.plan.ok());

  // Mutate every catalog (each query owns one here).
  for (auto& w : workloads) {
    catalog::StoredFile* f = w.catalog.MutableFile("C1");
    ASSERT_NE(f, nullptr);
    f->set_cardinality(f->cardinality() * 50);
  }

  auto round2 = batch.OptimizeAll(queries);
  ASSERT_EQ(round2.size(), queries.size());
  for (size_t i = 0; i < round2.size(); ++i) {
    ASSERT_TRUE(round2[i].plan.ok());
    // No result of this round may come from the pre-mutation cache.
    EXPECT_FALSE(round2[i].stats.plan_from_cache) << "query " << i;
    Optimizer ref(rules_.get(), &workloads[i].catalog, {});
    auto ref_plan = ref.Optimize(*workloads[i].query);
    ASSERT_TRUE(ref_plan.ok());
    EXPECT_EQ(round2[i].plan->cost, ref_plan->cost) << "query " << i;
    EXPECT_EQ(Render(*round2[i].plan), Render(*ref_plan)) << "query " << i;
  }
  EXPECT_EQ(batch.plan_cache()->stats().stale_drops, queries.size());

  // A third round (no further mutation) is served warm — and correctly.
  auto round3 = batch.OptimizeAll(queries);
  for (size_t i = 0; i < round3.size(); ++i) {
    ASSERT_TRUE(round3[i].plan.ok());
    EXPECT_TRUE(round3[i].stats.plan_from_cache) << "query " << i;
    EXPECT_EQ(Render(*round3[i].plan), Render(*round2[i].plan));
  }
}

// ---------------------------------------------------------------------------
// Eviction.

TEST_F(PlanCacheTest, LruEvictsOldestUnderEntryBudget) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCacheOptions copt;
  copt.shards = 1;  // deterministic: one LRU list
  copt.max_entries = 2;
  copt.max_bytes = 0;
  PlanCache cache(&store, copt);

  std::vector<workload::Workload> ws;
  std::vector<PlanCache::Key> keys;
  for (int i = 0; i < 3; ++i) {
    ws.push_back(MakeQ(1, 2, static_cast<uint64_t>(20 + i)));
    keys.push_back(PlanCache::MakeKey(*ws[i].query, 0, ws[i].catalog, &store));
    cache.Insert(keys[i], ws[i].catalog, {}, Plan{});
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The first-inserted key was least recently used and is gone.
  Plan hit;
  EXPECT_FALSE(cache.Probe(keys[0], ws[0].catalog, {}, &hit));
  EXPECT_TRUE(cache.Probe(keys[1], ws[1].catalog, {}, &hit));
  EXPECT_TRUE(cache.Probe(keys[2], ws[2].catalog, {}, &hit));

  // Probing refreshes recency: touch key 1 so key 2 becomes the LRU
  // victim of the next insert.
  EXPECT_TRUE(cache.Probe(keys[1], ws[1].catalog, {}, &hit));
  workload::Workload w3 = MakeQ(1, 2, 40);
  const PlanCache::Key k3 = PlanCache::MakeKey(*w3.query, 0, w3.catalog,
                                               &store);
  cache.Insert(k3, w3.catalog, {}, Plan{});
  EXPECT_FALSE(cache.Probe(keys[2], ws[2].catalog, {}, &hit));
  EXPECT_TRUE(cache.Probe(keys[1], ws[1].catalog, {}, &hit));
  EXPECT_TRUE(cache.Probe(k3, w3.catalog, {}, &hit));
}

TEST_F(PlanCacheTest, EntryBudgetBelowShardCountBoundsTotalEntries) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCacheOptions copt;  // default shard count
  copt.max_entries = 2;
  PlanCache cache(&store, copt);

  for (int i = 0; i < 40; ++i) {
    workload::Workload w = MakeQ(1, 2, static_cast<uint64_t>(100 + i));
    const PlanCache::Key key =
        PlanCache::MakeKey(*w.query, 0, w.catalog, &store);
    cache.Insert(key, w.catalog, {}, Plan{});
  }
  EXPECT_EQ(cache.stats().inserts, 40u);
  EXPECT_LE(cache.size(), 2u);
}

TEST_F(PlanCacheTest, ByteBudgetBoundsRetainedSize) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCacheOptions copt;
  copt.shards = 1;
  copt.max_entries = 0;
  copt.max_bytes = 2048;  // roughly one entry's footprint
  PlanCache cache(&store, copt);

  for (int i = 0; i < 8; ++i) {
    workload::Workload w = MakeQ(1, 2, static_cast<uint64_t>(60 + i));
    const PlanCache::Key key =
        PlanCache::MakeKey(*w.query, 0, w.catalog, &store);
    cache.Insert(key, w.catalog, {}, Plan{});
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.bytes(), 2048u);
  EXPECT_GE(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Isolation.

TEST_F(PlanCacheTest, IdenticalCatalogsWithDistinctUidsDoNotShareEntries) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);
  workload::Workload w = MakeQ(3, 2, 9);
  catalog::Catalog copy = w.catalog;  // same content, fresh uid

  OptimizerOptions options;
  options.plan_cache = &cache;
  Optimizer a(rules_.get(), &w.catalog, options, &store);
  ASSERT_TRUE(a.Optimize(*w.query).ok());

  // Same query against the copied catalog: the uid differs, so the entry
  // cached for the original must not be served.
  Optimizer b(rules_.get(), &copy, options, &store);
  auto plan = b.Optimize(*w.query);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(b.stats().plan_from_cache);
  EXPECT_EQ(cache.stats().inserts, 2u);
}

TEST_F(PlanCacheTest, CacheBoundToForeignStoreIsBypassed) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  DescriptorStore other(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&other);  // NOT the store the optimizer interns through
  workload::Workload w = MakeQ(1, 2, 13);

  OptimizerOptions options;
  options.plan_cache = &cache;
  Optimizer opt(rules_.get(), &w.catalog, options, &store);
  auto plan = opt.Optimize(*w.query);
  ASSERT_TRUE(plan.ok());
  // Foreign ids would make the key meaningless; the engine must not have
  // touched the cache at all.
  EXPECT_EQ(opt.stats().cache_probes, 0u);
  EXPECT_EQ(cache.stats().probes, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PlanCacheTest, BatchCacheOnAndOffProduceIdenticalPlans) {
  std::vector<workload::Workload> workloads;
  for (int q = 1; q <= 8; ++q) workloads.push_back(MakeQ(q, 3, 17));
  std::vector<BatchQuery> queries;
  for (const auto& w : workloads) {
    queries.push_back(BatchQuery{w.query.get(), &w.catalog});
  }

  BatchOptions off;
  off.jobs = 2;
  BatchOptimizer batch_off(rules_.get(), off);
  auto ref = batch_off.OptimizeAll(queries);

  BatchOptions on;
  on.jobs = 2;
  on.plan_cache_entries = 1024;
  BatchOptimizer batch_on(rules_.get(), on);
  auto cold = batch_on.OptimizeAll(queries);
  auto warm = batch_on.OptimizeAll(queries);

  ASSERT_EQ(ref.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(ref[i].plan.ok());
    ASSERT_TRUE(cold[i].plan.ok());
    ASSERT_TRUE(warm[i].plan.ok());
    EXPECT_EQ(cold[i].plan->cost, ref[i].plan->cost) << "query " << i;
    EXPECT_EQ(warm[i].plan->cost, ref[i].plan->cost) << "query " << i;
    EXPECT_EQ(Render(*cold[i].plan), Render(*ref[i].plan)) << "query " << i;
    EXPECT_EQ(Render(*warm[i].plan), Render(*ref[i].plan)) << "query " << i;
    EXPECT_TRUE(warm[i].stats.plan_from_cache) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Parameterized entries: constant-stripped skeleton keys, rebinding,
// sensitivity guard, and exact-only fallbacks (DESIGN.md §8).

using ParameterizedCacheTest = PlanCacheTest;

TEST_F(ParameterizedCacheTest, ReboundPlansEqualFreshOptimizationAcrossQ5Q8) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);
  OptimizerOptions options;
  options.plan_cache = &cache;
  options.param_cache = true;

  for (int q = 5; q <= 8; ++q) {
    workload::Workload w = MakeQ(q, 2, 19);
    algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
    ASSERT_NE(pq.skeleton, nullptr) << "Q" << q;
    ASSERT_EQ(pq.slots.size(), 3u) << "Q" << q;  // bc_i = ?k per class

    // Cold pass inserts the skeleton entry.
    Optimizer cold(rules_.get(), &w.catalog, options, &store);
    ASSERT_TRUE(cold.Optimize(*w.query).ok());
    EXPECT_FALSE(cold.stats().plan_from_cache);

    // Constant-varying probes of the same skeleton: every one must be
    // served by rebinding, and every rebound plan must equal a fresh
    // cache-less optimization of the same bound query.
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<algebra::Scalar> values;
      for (const algebra::ParamSlot& slot : pq.slots) {
        const int64_t domain =
            std::max<int64_t>(1, w.catalog.DistinctValues(slot.attr));
        values.push_back(algebra::Scalar::Int(
            (3 * static_cast<int64_t>(variant) + 7) % domain));
      }
      algebra::ExprPtr bound = algebra::BindQuery(*pq.skeleton, values);
      ASSERT_NE(bound, nullptr);

      Optimizer warm(rules_.get(), &w.catalog, options, &store);
      auto warm_plan = warm.Optimize(*bound);
      ASSERT_TRUE(warm_plan.ok()) << "Q" << q << " variant " << variant;
      EXPECT_TRUE(warm.stats().plan_from_cache)
          << "Q" << q << " variant " << variant;
      EXPECT_EQ(warm.stats().cache_param_hits, 1u);

      Optimizer ref(rules_.get(), &w.catalog, {});
      auto ref_plan = ref.Optimize(*bound);
      ASSERT_TRUE(ref_plan.ok());
      EXPECT_EQ(warm_plan->cost, ref_plan->cost)
          << "Q" << q << " variant " << variant;
      EXPECT_EQ(Render(*warm_plan), Render(*ref_plan))
          << "Q" << q << " variant " << variant;
    }
  }
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.param_inserts, 4u);
  EXPECT_EQ(stats.unrebindable_inserts, 0u);
  EXPECT_EQ(stats.param_hits, 12u);
  EXPECT_EQ(stats.sensitivity_rejects, 0u);
}

TEST_F(ParameterizedCacheTest, DisabledParamCacheLeavesExactPathUntouched) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);
  OptimizerOptions options;
  options.plan_cache = &cache;  // param_cache stays false

  workload::Workload w = MakeQ(5, 2, 23);
  Optimizer cold(rules_.get(), &w.catalog, options, &store);
  ASSERT_TRUE(cold.Optimize(*w.query).ok());

  // A constant-variant of the same query misses: the exact path keys on
  // the literal bytes.
  algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
  ASSERT_NE(pq.skeleton, nullptr);
  std::vector<algebra::Scalar> values;
  for (const algebra::ParamSlot& slot : pq.slots) {
    const int64_t domain =
        std::max<int64_t>(1, w.catalog.DistinctValues(slot.attr));
    const int64_t* original = std::get_if<int64_t>(&slot.value.v);
    ASSERT_NE(original, nullptr);
    values.push_back(algebra::Scalar::Int((*original + 1) % domain));
  }
  algebra::ExprPtr variant = algebra::BindQuery(*pq.skeleton, values);
  ASSERT_NE(variant, nullptr);
  Optimizer probe(rules_.get(), &w.catalog, options, &store);
  ASSERT_TRUE(probe.Optimize(*variant).ok());
  EXPECT_FALSE(probe.stats().plan_from_cache);

  // The byte-identical query still hits, and no parameterized machinery
  // ever engaged.
  Optimizer warm(rules_.get(), &w.catalog, options, &store);
  ASSERT_TRUE(warm.Optimize(*w.query).ok());
  EXPECT_TRUE(warm.stats().plan_from_cache);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.param_hits, 0u);
  EXPECT_EQ(stats.param_inserts, 0u);
  EXPECT_EQ(stats.unrebindable_inserts, 0u);
  EXPECT_EQ(stats.sensitivity_rejects, 0u);
}

TEST_F(ParameterizedCacheTest, ZeroSlotEntriesServeBothCacheModes) {
  // Q1 has no strippable constants, so under param_cache it keys on its
  // own tree with zero slots — the key exact mode builds. One entry then
  // serves both modes, whichever inserted it.
  workload::Workload w = MakeQ(1, 2, 27);
  ASSERT_EQ(algebra::ParameterizeQuery(*w.query).skeleton, nullptr);
  Optimizer ref(rules_.get(), &w.catalog, {});
  auto ref_plan = ref.Optimize(*w.query);
  ASSERT_TRUE(ref_plan.ok());

  for (const bool exact_inserts : {true, false}) {
    DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
    PlanCache cache(&store);
    OptimizerOptions exact;
    exact.plan_cache = &cache;
    OptimizerOptions param = exact;
    param.param_cache = true;

    Optimizer cold(rules_.get(), &w.catalog, exact_inserts ? exact : param,
                   &store);
    ASSERT_TRUE(cold.Optimize(*w.query).ok());
    EXPECT_FALSE(cold.stats().plan_from_cache);
    Optimizer warm(rules_.get(), &w.catalog, exact_inserts ? param : exact,
                   &store);
    auto warm_plan = warm.Optimize(*w.query);
    ASSERT_TRUE(warm_plan.ok());
    EXPECT_TRUE(warm.stats().plan_from_cache) << exact_inserts;
    EXPECT_EQ(warm.stats().cache_param_hits, 0u);
    EXPECT_EQ(warm_plan->cost, ref_plan->cost);
    EXPECT_TRUE(warm_plan->root->ToExpr(*rules_->algebra)
                    ->Equals(*ref_plan->root->ToExpr(*rules_->algebra)));

    // Zero-slot traffic never moves the parameterized counters.
    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.param_hits, 0u);
    EXPECT_EQ(stats.param_inserts, 0u);
    EXPECT_EQ(stats.unrebindable_inserts, 0u);
    EXPECT_EQ(stats.sensitivity_rejects, 0u);
  }
}

TEST_F(ParameterizedCacheTest, ExactModeNeverServesSkeletonEntries) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);
  OptimizerOptions exact;
  exact.plan_cache = &cache;
  OptimizerOptions param = exact;
  param.param_cache = true;

  workload::Workload w = MakeQ(5, 2, 27);
  Optimizer cold(rules_.get(), &w.catalog, param, &store);
  ASSERT_TRUE(cold.Optimize(*w.query).ok());
  ASSERT_EQ(cache.stats().param_inserts, 1u);

  algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
  ASSERT_NE(pq.skeleton, nullptr);
  std::vector<algebra::Scalar> values;
  for (const algebra::ParamSlot& slot : pq.slots) {
    const int64_t domain =
        std::max<int64_t>(1, w.catalog.DistinctValues(slot.attr));
    const int64_t* original = std::get_if<int64_t>(&slot.value.v);
    ASSERT_NE(original, nullptr);
    values.push_back(algebra::Scalar::Int((*original + 1) % domain));
  }
  algebra::ExprPtr variant = algebra::BindQuery(*pq.skeleton, values);
  ASSERT_NE(variant, nullptr);

  // Exact mode keys on the constant-bearing tree, which no skeleton key
  // matches: the variant misses rather than being served a rebound plan.
  Optimizer probe(rules_.get(), &w.catalog, exact, &store);
  auto fresh = probe.Optimize(*variant);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(probe.stats().plan_from_cache);
  EXPECT_EQ(probe.stats().cache_param_hits, 0u);
  EXPECT_EQ(cache.stats().param_hits, 0u);

  // The skeleton entry still serves parameterized probes of the variant.
  Optimizer warm(rules_.get(), &w.catalog, param, &store);
  auto warm_plan = warm.Optimize(*variant);
  ASSERT_TRUE(warm_plan.ok());
  EXPECT_TRUE(warm.stats().plan_from_cache);
  EXPECT_EQ(warm.stats().cache_param_hits, 1u);
  // Descriptors included: the rebound plan carries the variant's constants.
  EXPECT_EQ(warm_plan->cost, fresh->cost);
  EXPECT_TRUE(warm_plan->root->ToExpr(*rules_->algebra)
                  ->Equals(*fresh->root->ToExpr(*rules_->algebra)));
}

TEST_F(ParameterizedCacheTest, SensitivityGuardRejectsOutOfBandBindings) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);  // default band: factor 4
  workload::Workload w = MakeQ(5, 2, 29);
  algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
  ASSERT_NE(pq.skeleton, nullptr);

  Optimizer ref(rules_.get(), &w.catalog, {});
  auto plan = ref.Optimize(*w.query);
  ASSERT_TRUE(plan.ok());

  const PlanCache::Key key =
      PlanCache::MakeKey(*pq.skeleton, 0, w.catalog, &store);
  PlanCache::ParamInfo selective;
  selective.slots = pq.slots;
  selective.guard_est = 0.01;
  cache.Insert(key, w.catalog, selective, *plan);
  ASSERT_EQ(cache.stats().param_inserts, 1u);

  // Same skeleton, wildly different estimated selectivity: the guard must
  // turn the probe away rather than serve a mis-fitted plan.
  PlanCache::ParamInfo broad = selective;
  broad.guard_est = 0.9;
  Plan hit;
  bool dropped_stale = false;
  bool guard_rejected = false;
  EXPECT_FALSE(cache.Probe(key, w.catalog, broad, &hit, &dropped_stale,
                                &guard_rejected));
  EXPECT_TRUE(guard_rejected);
  EXPECT_EQ(cache.stats().sensitivity_rejects, 1u);

  // Fresh optimization under the rejected binding populates a per-band
  // variant; afterwards both bands are served.
  cache.Insert(key, w.catalog, broad, *plan);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Probe(key, w.catalog, broad, &hit));
  EXPECT_TRUE(cache.Probe(key, w.catalog, selective, &hit));

  // A nearby estimate (within the 4x band) is served by the variant.
  PlanCache::ParamInfo nearby = selective;
  nearby.guard_est = 0.02;
  EXPECT_TRUE(cache.Probe(key, w.catalog, nearby, &hit));

  // Band 0 disables the guard entirely.
  PlanCacheOptions open_opts;
  open_opts.param_band = 0;
  PlanCache open_cache(&store, open_opts);
  open_cache.Insert(key, w.catalog, selective, *plan);
  EXPECT_TRUE(open_cache.Probe(key, w.catalog, broad, &hit));
}

TEST_F(ParameterizedCacheTest, UnattributablePlanConstantsFallBackToExact) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCache cache(&store);
  workload::Workload w = MakeQ(5, 2, 31);
  algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
  ASSERT_NE(pq.skeleton, nullptr);

  Optimizer ref(rules_.get(), &w.catalog, {});
  auto plan = ref.Optimize(*w.query);
  ASSERT_TRUE(plan.ok());

  // Lie about one binding value: the plan's constant no longer matches any
  // slot, so the insert must refuse to store markers.
  PlanCache::ParamInfo info;
  info.slots = pq.slots;
  const int64_t* original = std::get_if<int64_t>(&info.slots[0].value.v);
  ASSERT_NE(original, nullptr);
  info.slots[0].value = algebra::Scalar::Int(*original + 1000);
  const PlanCache::Key key =
      PlanCache::MakeKey(*pq.skeleton, 0, w.catalog, &store);
  cache.Insert(key, w.catalog, info, *plan);
  EXPECT_EQ(cache.stats().unrebindable_inserts, 1u);
  EXPECT_EQ(cache.stats().param_inserts, 0u);

  // The exact-only entry serves precisely its own binding...
  Plan hit;
  EXPECT_TRUE(cache.Probe(key, w.catalog, info, &hit));
  EXPECT_EQ(Render(hit), Render(*plan));

  // ...and never a different one (an unrebindable plan must not be bent
  // to fresh constants).
  PlanCache::ParamInfo other = info;
  other.slots[1].value = algebra::Scalar::Int(12345);
  EXPECT_FALSE(cache.Probe(key, w.catalog, other, &hit));

  // Ambiguous slots (two indistinguishable comparison shapes) are equally
  // unrebindable: binding could swap their constants.
  PlanCache::ParamInfo ambiguous;
  ambiguous.slots = pq.slots;
  ambiguous.slots.push_back(pq.slots[0]);
  EXPECT_TRUE(algebra::SlotMatcher(ambiguous.slots).ambiguous());
  cache.Insert(key, w.catalog, ambiguous, *plan);
  EXPECT_EQ(cache.stats().unrebindable_inserts, 2u);
}

TEST_F(ParameterizedCacheTest, ByteBudgetCoversParameterizedEntries) {
  DescriptorStore store(&rules_->algebra->properties(), StoreMode::kSerial);
  PlanCacheOptions copt;
  copt.shards = 1;
  copt.max_entries = 0;
  copt.max_bytes = 2048;
  PlanCache cache(&store, copt);

  for (int i = 0; i < 8; ++i) {
    workload::Workload w = MakeQ(5, 2, static_cast<uint64_t>(70 + i));
    algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
    ASSERT_NE(pq.skeleton, nullptr);
    PlanCache::ParamInfo info;
    info.slots = pq.slots;
    const PlanCache::Key key =
        PlanCache::MakeKey(*pq.skeleton, 0, w.catalog, &store);
    cache.Insert(key, w.catalog, info, Plan{});
  }
  // Parameterized entries charge their skeleton key AND parameter vector
  // against the byte budget; eviction holds the cache under it.
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.bytes(), 2048u);
  EXPECT_GE(cache.size(), 1u);

  // An entry's accounted footprint exceeds the bare exact entry's by at
  // least the parameter vector.
  workload::Workload w = MakeQ(5, 2, 90);
  algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
  const PlanCache::Key key =
      PlanCache::MakeKey(*pq.skeleton, 0, w.catalog, &store);
  PlanCache cache_exact(&store, PlanCacheOptions{});
  PlanCache cache_param(&store, PlanCacheOptions{});
  cache_exact.Insert(key, w.catalog, {}, Plan{});
  PlanCache::ParamInfo info;
  info.slots = pq.slots;
  cache_param.Insert(key, w.catalog, info, Plan{});
  EXPECT_GT(cache_param.bytes(), cache_exact.bytes());
}

TEST_F(ParameterizedCacheTest, ParamSelectivityTracksDomainAndConstant) {
  workload::Workload w = MakeQ(5, 2, 41);
  const algebra::Attr bc{"C1", "bc"};
  const int64_t domain = w.catalog.DistinctValues(bc);
  ASSERT_GT(domain, 1);

  using algebra::CmpOp;
  using algebra::ParamSlot;
  using algebra::Scalar;
  const auto est = [&](std::vector<ParamSlot> slots) {
    return volcano::ParamSelectivity(slots, w.catalog);
  };

  // Equality: 1/distinct, independent of the value.
  EXPECT_DOUBLE_EQ(est({{CmpOp::kEq, bc, false, Scalar::Int(1)}}),
                   1.0 / static_cast<double>(domain));
  EXPECT_DOUBLE_EQ(est({{CmpOp::kEq, bc, false, Scalar::Int(domain - 1)}}),
                   1.0 / static_cast<double>(domain));

  // Ranges: the constant's position in the domain drives the estimate.
  const double lt_small = est({{CmpOp::kLt, bc, false, Scalar::Int(1)}});
  const double lt_large =
      est({{CmpOp::kLt, bc, false, Scalar::Int(domain - 1)}});
  EXPECT_LT(lt_small, lt_large);
  const double gt_small = est({{CmpOp::kGt, bc, false, Scalar::Int(1)}});
  const double gt_large =
      est({{CmpOp::kGt, bc, false, Scalar::Int(domain - 1)}});
  EXPECT_GT(gt_small, gt_large);

  // A flipped comparison (constant on the left) mirrors the operator:
  // c < attr  ==  attr > c.
  EXPECT_DOUBLE_EQ(est({{CmpOp::kLt, bc, true, Scalar::Int(1)}}), gt_small);

  // Conjunctions multiply, and the product stays clamped into (0, 1].
  const double one = est({{CmpOp::kEq, bc, false, Scalar::Int(1)}});
  const double two = est({{CmpOp::kEq, bc, false, Scalar::Int(1)},
                          {CmpOp::kEq, bc, false, Scalar::Int(2)}});
  EXPECT_DOUBLE_EQ(two, one * one);
  EXPECT_GT(two, 0.0);
}

}  // namespace
}  // namespace prairie
