// Tests for the parallel batch-optimization layer: concurrent descriptor
// interning (canonical ids under racing threads), slice registration
// dedup, predicate caches filled by racing readers, the per-operator rule
// dispatch index (must hold every rule in its root operator's bucket),
// and BatchOptimizer plan identity against the single-threaded optimizer.
//
// Suite names (ConcurrentStoreTest / PredicateCacheConcurrencyTest /
// DispatchIndexTest / BatchOptimizerTest ...) are what CI's
// ThreadSanitizer job selects with `ctest -R`.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "algebra/descriptor_store.h"
#include "algebra/param.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "exec/builder.h"
#include "exec/operators.h"
#include "exec/stats.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "p2v/translator.h"
#include "volcano/batch.h"
#include "volcano/engine.h"
#include "volcano/memo.h"
#include "volcano/plancache.h"
#include "workload/workload.h"

namespace prairie {
namespace {

using algebra::Descriptor;
using algebra::DescriptorId;
using algebra::DescriptorStore;
using algebra::PropertyId;
using algebra::PropertySchema;
using algebra::PropertySlice;
using algebra::SliceId;
using algebra::StoreMode;
using algebra::Value;
using algebra::ValueType;

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)             \
  auto PRAIRIE_CONCAT(_res_, __LINE__) = (rexpr);    \
  ASSERT_TRUE(PRAIRIE_CONCAT(_res_, __LINE__).ok())  \
      << PRAIRIE_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(PRAIRIE_CONCAT(_res_, __LINE__)).ValueUnsafe();

// ---------------------------------------------------------------------------
// Concurrent interning.

class ConcurrentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.Add("x", ValueType::kReal).ok());
    ASSERT_TRUE(schema_.Add("y", ValueType::kReal).ok());
    ASSERT_TRUE(schema_.Add("s", ValueType::kString).ok());
    x_ = *schema_.Find("x");
    y_ = *schema_.Find("y");
    s_ = *schema_.Find("s");
  }

  Descriptor Make(int key) const {
    Descriptor d(&schema_);
    d.SetUnchecked(x_, Value::Real(static_cast<double>(key)));
    d.SetUnchecked(y_, Value::Real(static_cast<double>(key % 4)));
    d.SetUnchecked(s_, Value::Str("tag" + std::to_string(key % 8)));
    return d;
  }

  PropertySchema schema_;
  PropertyId x_ = 0, y_ = 0, s_ = 0;
};

TEST_F(ConcurrentStoreTest, ParallelInternYieldsCanonicalIds) {
  constexpr int kKeys = 64;
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;

  DescriptorStore store(&schema_, StoreMode::kConcurrent);
  ASSERT_TRUE(store.concurrent());

  // Every thread interns the whole key space repeatedly, each starting at
  // a different rotation so threads race on different keys at any moment.
  std::vector<std::vector<DescriptorId>> seen(
      kThreads, std::vector<DescriptorId>(kKeys, algebra::kInvalidDescriptorId));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          const int key = (i + t * 7) % kKeys;
          const DescriptorId id = store.Intern(Make(key));
          if (seen[t][key] == algebra::kInvalidDescriptorId) {
            seen[t][key] = id;
          } else {
            // Re-interning an equal value must return the same id, always.
            ASSERT_EQ(seen[t][key], id);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // All threads agree on every key's id: ids are globally canonical.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
  // Value-level dedup is global: exactly one entry per distinct value.
  EXPECT_EQ(store.size(), static_cast<size_t>(kKeys));
  // The id <-> value invariant holds for everything interned.
  for (int key = 0; key < kKeys; ++key) {
    const DescriptorId id = seen[0][key];
    EXPECT_TRUE(store.Get(id) == Make(key));
    EXPECT_EQ(store.HashOf(id), store.Get(id).Hash());
  }
  // Traffic accounting: kThreads * kRounds * kKeys lookups, all but the
  // first interning of each value a hit.
  EXPECT_EQ(store.lookups(), uint64_t{kThreads} * kRounds * kKeys);
  EXPECT_EQ(store.hits(), store.lookups() - kKeys);
}

TEST_F(ConcurrentStoreTest, ParallelProjectedInternAndProject) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;

  DescriptorStore store(&schema_, StoreMode::kConcurrent);
  const SliceId sx = store.RegisterSlice(PropertySlice{{x_}});

  // Pre-intern the full descriptors serially so Project() has stable ids
  // to chew on; the projected interning itself runs concurrently.
  std::vector<DescriptorId> full(kKeys);
  for (int i = 0; i < kKeys; ++i) full[i] = store.Intern(Make(i));

  std::vector<std::vector<DescriptorId>> proj(
      kThreads, std::vector<DescriptorId>(kKeys));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kKeys; ++i) {
        const int key = (i + t * 5) % kKeys;
        // Mix both entry points; they must agree.
        const DescriptorId via_value = store.InternProjected(sx, Make(key));
        const DescriptorId via_id = store.Project(sx, full[key]);
        ASSERT_EQ(via_value, via_id);
        proj[t][key] = via_value;
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(proj[t], proj[0]);
  // The projection keeps only x, so every projected id's descriptor must
  // equal the slice projection of the full value.
  const PropertySlice slice{{x_}};
  for (int key = 0; key < kKeys; ++key) {
    EXPECT_TRUE(store.Get(proj[0][key]) == slice.Project(Make(key)));
  }
}

TEST_F(ConcurrentStoreTest, RegisterSliceDedupesByPropertySet) {
  DescriptorStore store(&schema_, StoreMode::kConcurrent);
  const SliceId a = store.RegisterSlice(PropertySlice{{x_, s_}});
  const SliceId b = store.RegisterSlice(PropertySlice{{x_, s_}});
  const SliceId c = store.RegisterSlice(PropertySlice{{y_}});
  EXPECT_EQ(a, b);  // same property set -> same handle, no coordination
  EXPECT_NE(a, c);
  EXPECT_EQ(store.slice(a).ids, (std::vector<PropertyId>{x_, s_}));
  EXPECT_EQ(store.slice(c).ids, (std::vector<PropertyId>{y_}));
}

TEST_F(ConcurrentStoreTest, SerialModeBehavesIdentically) {
  DescriptorStore serial(&schema_, StoreMode::kSerial);
  DescriptorStore conc(&schema_, StoreMode::kConcurrent);
  EXPECT_FALSE(serial.concurrent());
  for (int pass = 0; pass < 2; ++pass) {
    for (int key = 0; key < 16; ++key) {
      EXPECT_EQ(serial.Intern(Make(key)), conc.Intern(Make(key)));
    }
  }
  EXPECT_EQ(serial.size(), conc.size());
  EXPECT_EQ(serial.lookups(), conc.lookups());
  EXPECT_EQ(serial.hits(), conc.hits());
}

// ---------------------------------------------------------------------------
// Predicate caches: ReferencedAttrs() fills a per-node cache on first use
// and Conjuncts() borrows the tree, while batch workers share the trees.

/// A seeded random predicate tree over a small attribute pool. The same
/// seed rebuilds an equal tree whose caches are still empty.
algebra::PredicateRef RandomPredicate(common::Rng& rng, int depth) {
  using algebra::Predicate;
  using algebra::Term;
  const auto attr = [&rng] {
    std::string cls = "C" + std::to_string(rng.Uniform(1, 4));
    std::string name(1, static_cast<char>('a' + rng.Uniform(0, 3)));
    return Term::MakeAttr(algebra::Attr{std::move(cls), std::move(name)});
  };
  const int64_t kind = depth <= 0 ? 0 : rng.Uniform(0, 3);
  if (kind == 0) {
    Term l = attr();
    Term r = rng.Bernoulli(0.5)
                 ? attr()
                 : Term::MakeConst(algebra::Scalar::Int(rng.Uniform(0, 9)));
    return Predicate::Cmp(algebra::CmpOp::kEq, std::move(l), std::move(r));
  }
  if (kind == 3) return Predicate::Not(RandomPredicate(rng, depth - 1));
  std::vector<algebra::PredicateRef> kids;
  const int64_t n = rng.Uniform(1, 4);
  for (int64_t i = 0; i < n; ++i) {
    kids.push_back(RandomPredicate(rng, depth - 1));
  }
  return kind == 1 ? Predicate::And(std::move(kids))
                   : Predicate::Or(std::move(kids));
}

std::vector<algebra::PredicateRef> RandomForest(uint64_t seed, int n) {
  common::Rng rng(seed);
  std::vector<algebra::PredicateRef> out;
  for (int i = 0; i < n; ++i) out.push_back(RandomPredicate(rng, 3));
  return out;
}

/// What a reader sees of one predicate: its referenced attributes and its
/// conjuncts, rendered.
struct PredicateView {
  algebra::AttrList attrs;
  std::vector<std::string> conjuncts;
  bool operator==(const PredicateView&) const = default;
};

PredicateView ViewOf(const algebra::PredicateRef& p) {
  PredicateView v;
  v.attrs = p->ReferencedAttrs()->attrs;
  for (const algebra::PredicateRef& c : algebra::Conjuncts(p)) {
    v.conjuncts.push_back(c->ToString());
  }
  return v;
}

TEST(PredicateCacheConcurrencyTest, ParallelReadersMatchSingleThreadedViews) {
  constexpr int kTrees = 96;
  constexpr int kThreads = 8;
  constexpr uint64_t kSeed = 7;

  // Three builds of one forest: `reference` is read on this thread;
  // `shared` and `stored` start with empty caches, and `stored` reaches
  // the readers only through a concurrent DescriptorStore.
  const std::vector<algebra::PredicateRef> reference =
      RandomForest(kSeed, kTrees);
  const std::vector<algebra::PredicateRef> shared =
      RandomForest(kSeed, kTrees);
  const std::vector<algebra::PredicateRef> stored =
      RandomForest(kSeed, kTrees);
  std::vector<PredicateView> expected;
  for (const algebra::PredicateRef& p : reference) {
    expected.push_back(ViewOf(p));
  }

  PropertySchema schema;
  ASSERT_TRUE(schema.Add("pred", ValueType::kPred).ok());
  const PropertyId pred = *schema.Find("pred");
  DescriptorStore store(&schema, StoreMode::kConcurrent);

  // Per thread and tree: the pooled attribute list it was handed (every
  // thread must get the one published list) and any mismatch.
  std::vector<std::vector<algebra::PooledAttrs>> lists(
      kThreads, std::vector<algebra::PooledAttrs>(kTrees, nullptr));
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int k = 0; k < kTrees; ++k) {
        const int i = (k + t * 11) % kTrees;
        // Interning races on the predicate hash caches as well.
        Descriptor d(&schema);
        d.SetUnchecked(pred, Value::Pred(stored[static_cast<size_t>(i)]));
        const DescriptorId id = store.Intern(d);
        const algebra::PredicateRef& held = store.Get(id).Get(pred).AsPred();
        const algebra::PredicateRef& mine = shared[static_cast<size_t>(i)];
        lists[t][i] = mine->ReferencedAttrs();
        if (!(ViewOf(mine) == expected[i])) ++mismatches[t];
        if (!(ViewOf(held) == expected[i])) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_EQ(lists[t], lists[0]) << "thread " << t;
  }
  // Structurally equal trees intern to one id per distinct predicate.
  std::vector<DescriptorId> ids;
  for (const algebra::PredicateRef& p : reference) {
    Descriptor d(&schema);
    d.SetUnchecked(pred, Value::Pred(p));
    ids.push_back(store.Intern(d));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(store.size(), ids.size());
}

// ---------------------------------------------------------------------------
// The attribute-list pool and its per-thread union memo.

TEST(AttrsPoolConcurrencyTest, ThreadsInternAndUnionToTheSamePointers) {
  using algebra::Attr;
  using algebra::AttrList;
  constexpr int kLists = 48;
  constexpr int kThreads = 8;
  // Lists no earlier test pooled, so the threads race on first inserts.
  // Each caller gets its own copies, built apart.
  const auto make_lists = []() {
    common::Rng rng(31);
    std::vector<AttrList> out(kLists);
    for (AttrList& l : out) {
      const int64_t n = rng.Uniform(0, 5);
      for (int64_t i = 0; i < n; ++i) {
        const char name = static_cast<char>('a' + rng.Uniform(0, 5));
        l.push_back(Attr{"Pool" + std::to_string(rng.Uniform(0, 3)),
                         std::string(1, name)});
      }
    }
    return out;
  };
  const std::vector<AttrList> reference = make_lists();

  // Per thread: the pooled address of each list, then of each ordered
  // union (i, i+1) and (i+1, i). Every union is taken twice.
  std::vector<std::vector<const AttrList*>> seen(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const std::vector<AttrList> lists = make_lists();
      std::vector<const AttrList*>& mine = seen[t];
      mine.assign(3 * kLists, nullptr);
      std::vector<Value> pooled(kLists);
      for (int k = 0; k < kLists; ++k) {
        const int i = (k + t * 7) % kLists;
        pooled[i] = Value::Attrs(lists[i]);
        mine[i] = &pooled[i].AsAttrs();
      }
      for (int round = 0; round < 2; ++round) {
        for (int k = 0; k < kLists; ++k) {
          const int i = (k + t * 5) % kLists;
          const int j = (i + 1) % kLists;
          const AttrList* ij = &algebra::UnionAttrs(pooled[i], pooled[j])
                                    .AsAttrs();
          const AttrList* ji = &algebra::UnionAttrs(pooled[j], pooled[i])
                                    .AsAttrs();
          if (*ij != algebra::UnionAttrs(reference[i], reference[j])) {
            ++mismatches[t];
          }
          if (*ji != algebra::UnionAttrs(reference[j], reference[i])) {
            ++mismatches[t];
          }
          // A memo hit returns the payload of the first call.
          if (round == 1 && mine[kLists + i] != ij) ++mismatches[t];
          if (round == 1 && mine[2 * kLists + i] != ji) ++mismatches[t];
          mine[kLists + i] = ij;
          mine[2 * kLists + i] = ji;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  for (int i = 0; i < kLists; ++i) {
    EXPECT_EQ(seen[0][i], &Value::Attrs(reference[i]).AsAttrs()) << i;
  }
}

TEST(AttrsPoolConcurrencyTest, ThreadsRacingOnAClassListGetOnePooledPointer) {
  constexpr int kFiles = 32;
  constexpr int kThreads = 8;
  // Files whose attributes no earlier test pooled, each asked for its
  // pooled list first by all threads at once.
  std::vector<catalog::StoredFile> files;
  for (int i = 0; i < kFiles; ++i) {
    std::vector<catalog::AttributeDef> attrs(3);
    for (int k = 0; k < 3; ++k) attrs[k].name = "q" + std::to_string(k);
    files.emplace_back("RaceFile" + std::to_string(i), std::move(attrs), 10,
                       8);
  }
  std::vector<std::vector<algebra::PooledAttrs>> seen(
      kThreads, std::vector<algebra::PooledAttrs>(kFiles, nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int k = 0; k < kFiles; ++k) {
        const int i = (k + t * 3) % kFiles;
        seen[t][i] = files[i].PooledQualifiedAttrs();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_EQ(seen[0][i], algebra::InternAttrs(files[i].QualifiedAttrs()));
  }
}

// ---------------------------------------------------------------------------
// Attribute ids: the pool numbers attributes as lists first name them.

TEST(AttrIdConcurrencyTest, ThreadsInterningUnseenAttributesAgree) {
  using algebra::Attr;
  using algebra::AttrList;
  constexpr int kLists = 64;
  constexpr int kThreads = 8;
  // Lists over attributes no earlier test named, with repeats and overlaps
  // between lists, so threads race to number the same attributes.
  common::Rng rng(41);
  std::vector<AttrList> lists(kLists);
  for (AttrList& l : lists) {
    const int64_t n = rng.Uniform(1, 5);
    for (int64_t i = 0; i < n; ++i) {
      l.push_back(Attr{"Unseen" + std::to_string(rng.Uniform(0, 5)),
                       "u" + std::to_string(rng.Uniform(0, 11))});
    }
  }

  // Per thread: each list's pooled pointer and each attribute's id, the
  // lists taken in an order of the thread's own.
  std::vector<std::vector<algebra::PooledAttrs>> pointers(
      kThreads, std::vector<algebra::PooledAttrs>(kLists, nullptr));
  std::vector<std::map<std::string, algebra::AttrId>> ids(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<int> order(kLists);
      for (int k = 0; k < kLists; ++k) order[k] = k;
      common::Rng mine(100 + static_cast<uint64_t>(t));
      for (int k = kLists - 1; k > 0; --k) {
        std::swap(order[k], order[mine.Uniform(0, k)]);
      }
      for (const int i : order) {
        const algebra::PooledAttrs p = algebra::InternAttrs(lists[i]);
        pointers[t][i] = p;
        if (p->attrs != lists[i] || p->ids.size() != lists[i].size()) {
          ++mismatches[t];
          continue;
        }
        for (size_t k = 0; k < p->ids.size(); ++k) {
          const auto [it, fresh] =
              ids[t].try_emplace(lists[i][k].ToString(), p->ids[k]);
          if (it->second != p->ids[k]) ++mismatches[t];
          if (!p->set.Contains(p->ids[k])) ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_EQ(pointers[t], pointers[0]) << "thread " << t;
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
  }
  // Distinct attributes got distinct ids, and each set holds exactly the
  // ids of its list's attributes.
  std::vector<algebra::AttrId> all;
  for (const auto& [name, id] : ids[0]) all.push_back(id);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  for (int i = 0; i < kLists; ++i) {
    for (const algebra::AttrId id : all) {
      const bool member = std::find(pointers[0][i]->ids.begin(),
                                    pointers[0][i]->ids.end(),
                                    id) != pointers[0][i]->ids.end();
      EXPECT_EQ(pointers[0][i]->set.Contains(id), member) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-operator rule dispatch index.

class OodbFixture : public ::testing::Test {
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
  std::string Render(const volcano::Plan& plan) const {
    return plan.root->ToExpr(*rules_->algebra)->TreeString(*rules_->algebra);
  }

  std::shared_ptr<volcano::RuleSet> rules_;
};

using DispatchIndexTest = OodbFixture;

TEST_F(DispatchIndexTest, FinalizeBuildsWellFormedIndex) {
  // The engine walks only these buckets, so the index must be complete:
  // every trans rule with an operator LHS root sits in exactly one bucket,
  // its root op's, and every impl rule in exactly its own op's bucket.
  const size_t num_ops = static_cast<size_t>(rules_->algebra->size());
  ASSERT_EQ(rules_->trans_rules_by_op.size(), num_ops);
  ASSERT_EQ(rules_->impl_rules_by_op.size(), num_ops);
  std::vector<int> trans_seen(rules_->trans_rules.size(), 0);
  std::vector<int> impl_seen(rules_->impl_rules.size(), 0);
  for (size_t op = 0; op < num_ops; ++op) {
    for (uint32_t ri : rules_->trans_rules_by_op[op]) {
      ASSERT_LT(ri, rules_->trans_rules.size());
      EXPECT_EQ(static_cast<size_t>(rules_->trans_rules[ri].lhs->op), op);
      ++trans_seen[ri];
    }
    for (uint32_t ri : rules_->impl_rules_by_op[op]) {
      ASSERT_LT(ri, rules_->impl_rules.size());
      EXPECT_EQ(static_cast<size_t>(rules_->impl_rules[ri].op), op);
      ++impl_seen[ri];
    }
  }
  size_t operator_roots = 0;
  for (size_t ri = 0; ri < rules_->trans_rules.size(); ++ri) {
    const bool op_root = !rules_->trans_rules[ri].lhs->is_stream();
    if (op_root) ++operator_roots;
    EXPECT_EQ(trans_seen[ri], op_root ? 1 : 0)
        << rules_->trans_rules[ri].name;
  }
  EXPECT_GT(operator_roots, 0u);
  for (size_t ri = 0; ri < rules_->impl_rules.size(); ++ri) {
    EXPECT_EQ(impl_seen[ri], 1) << rules_->impl_rules[ri].name;
  }
}

// ---------------------------------------------------------------------------
// BatchOptimizer.

using BatchOptimizerTest = OodbFixture;

TEST_F(BatchOptimizerTest, ParallelPlansMatchSerialOptimizer) {
  std::vector<workload::Workload> workloads;
  for (int q = 1; q <= 8; ++q) workloads.push_back(MakeQ(q, 2, 1));

  // Serial reference: one fresh single-threaded optimizer per query.
  std::vector<double> ref_cost;
  std::vector<std::string> ref_plan;
  for (const auto& w : workloads) {
    volcano::Optimizer opt(rules_.get(), &w.catalog, {});
    auto plan = opt.Optimize(*w.query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ref_cost.push_back(plan->cost);
    ref_plan.push_back(Render(*plan));
  }

  std::vector<volcano::BatchQuery> queries;
  for (const auto& w : workloads) {
    queries.push_back(volcano::BatchQuery{w.query.get(), &w.catalog});
  }

  for (int jobs : {1, 4}) {
    volcano::BatchOptions options;
    options.jobs = jobs;
    volcano::BatchOptimizer batch(rules_.get(), options);
    EXPECT_EQ(batch.jobs(), jobs);
    ASSERT_NE(batch.shared_store(), nullptr);
    EXPECT_EQ(batch.shared_store()->concurrent(), jobs > 1);

    auto results = batch.OptimizeAll(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].plan.ok())
          << "jobs=" << jobs << " Q" << (i + 1) << ": "
          << results[i].plan.status().ToString();
      EXPECT_EQ(results[i].plan->cost, ref_cost[i])
          << "jobs=" << jobs << " Q" << (i + 1);
      EXPECT_EQ(Render(*results[i].plan), ref_plan[i])
          << "jobs=" << jobs << " Q" << (i + 1);
      EXPECT_GT(results[i].stats.groups, 0u);
      EXPECT_GE(results[i].seconds, 0.0);
    }
    EXPECT_GT(batch.shared_store()->size(), 0u);
  }
}

TEST_F(BatchOptimizerTest, PerQueryFailuresDoNotAbortTheBatch) {
  workload::Workload good = MakeQ(1, 2, 1);
  std::vector<volcano::BatchQuery> queries{
      volcano::BatchQuery{good.query.get(), &good.catalog},
      volcano::BatchQuery{nullptr, &good.catalog},  // broken entry
      volcano::BatchQuery{good.query.get(), &good.catalog},
  };
  volcano::BatchOptions options;
  options.jobs = 2;
  volcano::BatchOptimizer batch(rules_.get(), options);
  auto results = batch.OptimizeAll(queries);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].plan.ok());
  EXPECT_FALSE(results[1].plan.ok());
  EXPECT_TRUE(results[2].plan.ok());
  EXPECT_EQ(results[0].plan->cost, results[2].plan->cost);
}

TEST_F(BatchOptimizerTest, PerWorkerTracingMergesOneConsistentStream) {
  std::vector<workload::Workload> workloads;
  for (int q = 1; q <= 8; ++q) workloads.push_back(MakeQ(q, 2, 1));
  std::vector<volcano::BatchQuery> queries;
  for (const auto& w : workloads) {
    queries.push_back(volcano::BatchQuery{w.query.get(), &w.catalog});
  }

  volcano::BatchOptions options;
  options.jobs = 4;
  options.trace_capacity = 1 << 16;
  volcano::BatchOptimizer batch(rules_.get(), options);
  auto results = batch.OptimizeAll(queries);
  ASSERT_EQ(results.size(), queries.size());

  size_t trans_fired = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.plan.ok()) << r.plan.status().ToString();
    trans_fired += r.stats.trans_fired;
  }

  // Every worker traced into a private sink; the merged stream must carry
  // exactly the events the per-query stats counted, in timestamp order.
  EXPECT_EQ(batch.trace_dropped(), 0u);
  const auto& events = batch.trace_events();
  EXPECT_FALSE(events.empty());
  size_t fire_events = 0;
  for (const auto& e : events) {
    if (e.kind == common::TraceEventKind::kTransFire) ++fire_events;
  }
  EXPECT_EQ(fire_events, trans_fired);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

// ---------------------------------------------------------------------------
// Metrics under concurrency (TSan-covered): sharded counters/histograms
// take concurrent increments from many threads while another thread
// snapshots and exports — no locks on the write path, so this is exactly
// the interleaving the relaxed-atomic sharding must survive.

TEST(MetricsRegistryTest, ConcurrentIncrementsMergeExactly) {
  common::MetricsRegistry registry;
  common::Counter* counter = registry.GetCounter("stress_total");
  common::Histogram* hist = registry.GetHistogram("stress_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Inc();
        hist->Observe(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const common::HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotsRaceWithWriters) {
  common::MetricsRegistry registry;
  common::Counter* counter = registry.GetCounter("race_total");
  common::Histogram* hist =
      registry.GetHistogram("race_ns", "", {{"rule", "stress"}});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Inc();
        hist->Observe(100);
      }
    });
  }
  // Concurrent readers: raw values, merged snapshots, both exporters, and
  // re-registration of the same identities.
  for (int i = 0; i < 50; ++i) {
    (void)counter->Value();
    (void)hist->Snapshot();
    EXPECT_FALSE(registry.PrometheusText().empty());
    EXPECT_FALSE(registry.JsonSnapshot().empty());
    EXPECT_EQ(registry.GetCounter("race_total"), counter);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  // Quiesced: a final snapshot is exact.
  const common::HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, counter->Value());
  EXPECT_EQ(snap.sum, 100 * counter->Value());
}

// Eight queries (Q3 at 2 joins, seeds 1..8: one shape, eight catalogs) for
// the batch metrics tests.
struct MetricsBatchInput {
  std::shared_ptr<volcano::RuleSet> rules;
  std::vector<workload::Workload> workloads;
  std::vector<volcano::BatchQuery> queries;
};

MetricsBatchInput MakeMetricsBatchInput() {
  MetricsBatchInput in;
  auto prairie_rules = opt::BuildOodbPrairie();
  EXPECT_TRUE(prairie_rules.ok());
  auto rules = p2v::Translate(*prairie_rules, nullptr);
  EXPECT_TRUE(rules.ok());
  in.rules = std::move(*rules);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto w = workload::MakeWorkload(*in.rules->algebra,
                                    workload::PaperQuery(3, 2, seed));
    EXPECT_TRUE(w.ok());
    in.workloads.push_back(std::move(*w));
  }
  for (const auto& w : in.workloads) {
    in.queries.push_back(volcano::BatchQuery{w.query.get(), &w.catalog});
  }
  return in;
}

TEST(MetricsRegistryTest, SharedBundleAcrossBatchWorkers) {
  const MetricsBatchInput in = MakeMetricsBatchInput();
  common::MetricsRegistry registry;
  const volcano::VolcanoMetrics metrics =
      volcano::VolcanoMetrics::ForRegistry(&registry);
  volcano::BatchOptions options;
  options.jobs = 4;
  options.optimizer.metrics = &metrics;
  options.optimizer.param_cache = true;
  options.plan_cache_entries = 4096;
  volcano::BatchOptimizer batch(in.rules.get(), options);
  const auto rows = volcano::VolcanoMetrics::CounterRows();
  std::array<uint64_t, volcano::VolcanoMetrics::kNumCounters> want{};
  // Two batches over one cache: the second is served from it.
  for (int round = 0; round < 2; ++round) {
    for (const volcano::BatchResult& r : batch.OptimizeAll(in.queries)) {
      ASSERT_TRUE(r.plan.ok());
      for (size_t i = 0; i < rows.size(); ++i) want[i] += rows[i].read(r.stats);
    }
  }
  // Every worker flushed into the same sharded series; the merge must be
  // exact once the batch barrier has passed. The interning rows come from
  // the shared concurrent store's own counters.
  const DescriptorStore::CounterSnapshot store =
      batch.shared_store()->Counters();
  volcano::OptimizerStats store_stats;
  store_stats.desc_lookups = store.lookups;
  store_stats.desc_hits = store.hits;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(metrics.counters[i]->Value(),
              rows[i].store_traffic ? rows[i].read(store_stats) : want[i])
        << rows[i].name;
  }
  EXPECT_EQ(registry.GetCounter("prairie_plan_cache_hits_total")->Value(),
            in.queries.size());
  EXPECT_EQ(metrics.queries->Value(), 2 * in.queries.size());
  EXPECT_EQ(metrics.batch_runs->Value(), 2u);
  EXPECT_EQ(metrics.batch_worker_merges->Value(), 8u);
}

TEST(MetricsRegistryTest, InternSeriesMatchSharedStore) {
  // Under a concurrent store each query's delta of the store's counters
  // includes the other workers' interning, so per-query flushes counted
  // the store's traffic several times over.
  const MetricsBatchInput in = MakeMetricsBatchInput();
  common::MetricsRegistry registry;
  const volcano::VolcanoMetrics metrics =
      volcano::VolcanoMetrics::ForRegistry(&registry);
  volcano::BatchOptions options;
  options.jobs = 4;
  options.optimizer.metrics = &metrics;
  volcano::BatchOptimizer batch(in.rules.get(), options);
  for (const volcano::BatchResult& r : batch.OptimizeAll(in.queries)) {
    ASSERT_TRUE(r.plan.ok());
  }
  const DescriptorStore& store = *batch.shared_store();
  ASSERT_TRUE(store.concurrent());
  const uint64_t hits =
      registry.GetCounter("prairie_intern_hits_total")->Value();
  const uint64_t misses =
      registry.GetCounter("prairie_intern_misses_total")->Value();
  EXPECT_EQ(misses, store.size());
  EXPECT_EQ(hits + misses, store.lookups());
}

// ---------------------------------------------------------------------------
// Plan cache under concurrency (TSan-covered): 8 workers share one cache
// over one concurrent store — racing probes, inserts, LRU splices and
// evictions — while another thread keeps bumping a catalog's version
// (contents unchanged, so every produced plan stays comparable to the
// serial reference; the bumps only force stale drops and refused inserts).

using PlanCacheConcurrencyTest = OodbFixture;

TEST_F(PlanCacheConcurrencyTest, SharedCacheUnderProbesInsertsAndEpochBumps) {
  constexpr int kRounds = 6;
  std::vector<workload::Workload> workloads;
  for (int q = 1; q <= 8; ++q) workloads.push_back(MakeQ(q, 2, 1));

  // Serial cache-less reference, per query.
  std::vector<double> ref_cost;
  std::vector<std::string> ref_plan;
  for (const auto& w : workloads) {
    volcano::Optimizer opt(rules_.get(), &w.catalog, {});
    auto plan = opt.Optimize(*w.query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ref_cost.push_back(plan->cost);
    ref_plan.push_back(Render(*plan));
  }

  std::vector<volcano::BatchQuery> queries;
  for (const auto& w : workloads) {
    queries.push_back(volcano::BatchQuery{w.query.get(), &w.catalog});
  }

  // The mutator bumps one catalog's epoch while workers optimize against
  // it; plans stay correct because the contents never change.
  std::atomic<bool> stop{false};
  std::thread mutator([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      workloads[0].catalog.BumpVersion();
      std::this_thread::yield();
    }
  });

  auto run_rounds = [&](volcano::BatchOptimizer* batch) {
    for (int round = 0; round < kRounds; ++round) {
      auto results = batch->OptimizeAll(queries);
      ASSERT_EQ(results.size(), queries.size());
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].plan.ok())
            << "round " << round << " query " << i << ": "
            << results[i].plan.status().ToString();
        EXPECT_EQ(results[i].plan->cost, ref_cost[i])
            << "round " << round << " query " << i;
        EXPECT_EQ(Render(*results[i].plan), ref_plan[i])
            << "round " << round << " query " << i;
      }
    }
  };

  // Phase 1: a deliberately tiny cache (one entry per shard) so evictions
  // race probes and inserts. Colliding keys can evict each other before
  // either re-probes, so no hit count is guaranteed here — only plan
  // correctness and probe accounting.
  {
    volcano::BatchOptions options;
    options.jobs = 8;
    options.plan_cache_entries = 16;
    volcano::BatchOptimizer batch(rules_.get(), options);
    run_rounds(&batch);
    const volcano::PlanCacheStats stats = batch.plan_cache()->stats();
    EXPECT_EQ(stats.probes,
              static_cast<uint64_t>(kRounds) * queries.size());
    EXPECT_EQ(stats.hits + stats.misses, stats.probes);
  }

  // Phase 2: a roomy cache where nothing is ever evicted. Every query with
  // a stable catalog inserts in round one and must hit in every later
  // round; only the query whose epoch the mutator keeps bumping may miss.
  {
    volcano::BatchOptions options;
    options.jobs = 8;
    options.plan_cache_entries = 4096;
    volcano::BatchOptimizer batch(rules_.get(), options);
    run_rounds(&batch);
    const volcano::PlanCacheStats stats = batch.plan_cache()->stats();
    EXPECT_EQ(stats.probes,
              static_cast<uint64_t>(kRounds) * queries.size());
    EXPECT_GE(stats.hits, static_cast<uint64_t>(kRounds - 1) *
                              (queries.size() - 1));
    EXPECT_EQ(stats.hits + stats.misses, stats.probes);
    EXPECT_EQ(stats.evictions, 0u);
  }

  stop.store(true, std::memory_order_release);
  mutator.join();
}

// ---------------------------------------------------------------------------
// Parameterized cache under concurrency (TSan-covered): 8 workers race
// constant-varying probes of ONE skeleton key — skeleton inserts, rebinds
// of the shared marker tree, LRU splices — and every served plan must
// still equal the serial cache-less reference for its own constants.

using ParameterizedCacheTest = OodbFixture;

TEST_F(ParameterizedCacheTest, RacingReboundProbesServeCorrectPlans) {
  constexpr int kVariants = 24;
  constexpr int kRounds = 3;
  workload::Workload w = MakeQ(5, 2, 3);
  algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
  ASSERT_NE(pq.skeleton, nullptr);

  // Constant-varying instances of the one skeleton, all against the same
  // catalog: every worker contends on the same cache key.
  std::vector<algebra::ExprPtr> variants;
  std::vector<double> ref_cost;
  std::vector<std::string> ref_plan;
  for (int v = 0; v < kVariants; ++v) {
    std::vector<algebra::Scalar> values;
    for (const algebra::ParamSlot& slot : pq.slots) {
      const int64_t domain =
          std::max<int64_t>(1, w.catalog.DistinctValues(slot.attr));
      values.push_back(algebra::Scalar::Int((7 * v + 1) % domain));
    }
    algebra::ExprPtr bound = algebra::BindQuery(*pq.skeleton, values);
    ASSERT_NE(bound, nullptr);
    volcano::Optimizer ref(rules_.get(), &w.catalog, {});
    auto plan = ref.Optimize(*bound);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ref_cost.push_back(plan->cost);
    ref_plan.push_back(Render(*plan));
    variants.push_back(std::move(bound));
  }

  std::vector<volcano::BatchQuery> queries;
  for (const auto& q : variants) {
    queries.push_back(volcano::BatchQuery{q.get(), &w.catalog});
  }
  volcano::BatchOptions options;
  options.jobs = 8;
  options.plan_cache_entries = 1024;
  options.optimizer.param_cache = true;
  volcano::BatchOptimizer batch(rules_.get(), options);
  for (int round = 0; round < kRounds; ++round) {
    auto results = batch.OptimizeAll(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].plan.ok())
          << "round " << round << " variant " << i << ": "
          << results[i].plan.status().ToString();
      EXPECT_EQ(results[i].plan->cost, ref_cost[i])
          << "round " << round << " variant " << i;
      EXPECT_EQ(Render(*results[i].plan), ref_plan[i])
          << "round " << round << " variant " << i;
    }
  }
  const volcano::PlanCacheStats stats = batch.plan_cache()->stats();
  EXPECT_EQ(stats.probes,
            static_cast<uint64_t>(kRounds) * queries.size());
  EXPECT_EQ(stats.hits + stats.misses, stats.probes);
  // After the cold round every probe rebinds from the skeleton: at least
  // the two fully-warm rounds' worth of hits are parameterized.
  EXPECT_GE(stats.param_hits,
            static_cast<uint64_t>(kRounds - 1) * queries.size());
  EXPECT_GE(stats.param_inserts, 1u);
  EXPECT_EQ(stats.unrebindable_inserts, 0u);
}

// ---------------------------------------------------------------------------
// Executor observability under concurrency (TSan-covered): N threads each
// build and run their own instrumented iterator over one shared read-only
// plan/database, then rendezvous on the shared aggregate surface — the
// sharded ExecMetrics series.

TEST(ExecObserveConcurrencyTest, SharedAggregatesTakeParallelFlushes) {
  // A 256-row table with k in [0, 16); the filter selects k == 3.
  algebra::PropertySchema schema;
  ASSERT_TRUE(schema.Add("num_records", algebra::ValueType::kReal).ok());
  algebra::Algebra algebra;
  const algebra::OpId scan_op = *algebra.RegisterAlgorithm("Scan", 1);
  const algebra::OpId filter_op = *algebra.RegisterAlgorithm("Filter", 1);
  exec::RowSchema row_schema;
  row_schema.attrs = {algebra::Attr{"T", "oid"}, algebra::Attr{"T", "k"}};
  exec::Table table("T", row_schema);
  size_t expected = 0;
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(
        table.Append({exec::Datum::Int(i), exec::Datum::Int(i % 16)}).ok());
    if (i % 16 == 3) ++expected;
  }
  exec::Database db;
  ASSERT_TRUE(db.AddTable(std::move(table)).ok());
  exec::ExecutorRegistry registry;
  ASSERT_TRUE(registry
                  .Register("Scan",
                            [](const algebra::Expr&, exec::PlanBuilder& b)
                                -> common::Result<exec::IterPtr> {
                              auto t = b.ChildTable(0);
                              if (!t.ok()) return t.status();
                              return exec::MakeTableScan(*t);
                            })
                  .ok());
  ASSERT_TRUE(registry
                  .Register("Filter",
                            [](const algebra::Expr&, exec::PlanBuilder& b)
                                -> common::Result<exec::IterPtr> {
                              auto child = b.BuildChild(0);
                              if (!child.ok()) return child.status();
                              return exec::MakeFilter(
                                  std::move(*child),
                                  algebra::Predicate::EqConst(
                                      algebra::Attr{"T", "k"},
                                      algebra::Scalar::Int(3)));
                            })
                  .ok());
  auto desc = [&](double est) {
    algebra::Descriptor d(&schema);
    EXPECT_TRUE(d.Set("num_records", algebra::Value::Real(est)).ok());
    return d;
  };
  std::vector<algebra::ExprPtr> leaf;
  leaf.push_back(algebra::Expr::MakeFile("T", algebra::Descriptor(&schema)));
  std::vector<algebra::ExprPtr> kids;
  kids.push_back(algebra::Expr::MakeOp(scan_op, std::move(leaf), desc(256)));
  const algebra::ExprPtr plan =
      algebra::Expr::MakeOp(filter_op, std::move(kids), desc(16));

  common::MetricsRegistry metrics_registry;
  const exec::ExecMetrics metrics =
      exec::ExecMetrics::ForRegistry(&metrics_registry);

  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int run = 0; run < kRunsPerThread; ++run) {
        exec::ExecStats stats;  // Per-thread collector, like TraceSink.
        auto it = registry.Build(*plan, algebra, db, &stats);
        if (!it.ok()) {
          ++failures;
          return;
        }
        auto rows = exec::CollectAll(it->get());
        if (!rows.ok() || rows->size() != expected ||
            stats.root() == nullptr || stats.root()->rows != expected) {
          ++failures;
          return;
        }
        metrics.FlushExecStats(stats);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  constexpr uint64_t kRuns = uint64_t{kThreads} * kRunsPerThread;
  EXPECT_EQ(metrics.queries->Value(), kRuns);
  EXPECT_EQ(metrics.operators->Value(), 2 * kRuns);
  EXPECT_EQ(metrics.query_latency_ns->Snapshot().count, kRuns);
}

}  // namespace
}  // namespace prairie
