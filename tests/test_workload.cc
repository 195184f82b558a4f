// Unit tests for the workload generators: the paper's query naming,
// expression shapes, catalog structure, determinism, and database
// population consistency.

#include <gtest/gtest.h>

#include <vector>

#include "algebra/descriptor_store.h"
#include "algebra/param.h"
#include "optimizers/props.h"
#include "optimizers/volcano_hand.h"
#include "workload/traffic.h"
#include "workload/workload.h"

namespace prairie::workload {
namespace {

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)             \
  auto PRAIRIE_CONCAT(_res_, __LINE__) = (rexpr);    \
  ASSERT_TRUE(PRAIRIE_CONCAT(_res_, __LINE__).ok())  \
      << PRAIRIE_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(PRAIRIE_CONCAT(_res_, __LINE__)).ValueUnsafe();

const std::shared_ptr<volcano::RuleSet>& Rules() {
  static auto rules = [] {
    auto v = opt::BuildOodbVolcano();
    EXPECT_TRUE(v.ok());
    return *v;
  }();
  return rules;
}

TEST(PaperQueryNaming, MatchesTable5) {
  struct Expect {
    ExprKind expr;
    bool idx;
  };
  const Expect expected[9] = {{},
                              {ExprKind::kE1, false},
                              {ExprKind::kE1, true},
                              {ExprKind::kE2, false},
                              {ExprKind::kE2, true},
                              {ExprKind::kE3, false},
                              {ExprKind::kE3, true},
                              {ExprKind::kE4, false},
                              {ExprKind::kE4, true}};
  for (int q = 1; q <= 8; ++q) {
    QuerySpec spec = PaperQuery(q, 3, 42);
    EXPECT_EQ(spec.expr, expected[q].expr) << "Q" << q;
    EXPECT_EQ(spec.with_indexes, expected[q].idx) << "Q" << q;
    EXPECT_EQ(spec.num_joins, 3);
    EXPECT_EQ(spec.seed, 42u);
  }
}

TEST(MakeWorkload, ExpressionShapes) {
  const auto& algebra = *Rules()->algebra;
  for (int e = 1; e <= 4; ++e) {
    QuerySpec spec;
    spec.expr = static_cast<ExprKind>(e);
    spec.num_joins = 2;
    spec.seed = 9;
    ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(algebra, spec));
    std::string text = w.query->ToString(algebra);
    bool has_mat = text.find("MAT(") != std::string::npos;
    bool has_select = text.find("SELECT(") != std::string::npos;
    EXPECT_EQ(has_mat, e == 2 || e == 4) << text;
    EXPECT_EQ(has_select, e == 3 || e == 4) << text;
    // N joins over N+1 classes.
    int joins = 0;
    for (size_t p = text.find("JOIN("); p != std::string::npos;
         p = text.find("JOIN(", p + 1)) {
      ++joins;
    }
    EXPECT_EQ(joins, 2) << text;
    EXPECT_TRUE(w.query->IsLogical(algebra));
  }
}

TEST(MakeWorkload, CatalogStructure) {
  QuerySpec spec = PaperQuery(4, /*num_joins=*/3, /*seed=*/5);  // E2 + idx.
  ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(*Rules()->algebra, spec));
  // 4 classes + 4 MAT target classes.
  EXPECT_EQ(w.catalog.size(), 8u);
  for (int i = 1; i <= 4; ++i) {
    const catalog::StoredFile* f = w.catalog.Find("C" + std::to_string(i));
    ASSERT_NE(f, nullptr);
    EXPECT_GE(f->cardinality(), spec.min_card);
    EXPECT_LE(f->cardinality(), spec.max_card);
    EXPECT_TRUE(f->HasIndexOn("bc"));
    const catalog::AttributeDef* ref = f->FindAttr("ref");
    ASSERT_NE(ref, nullptr);
    EXPECT_EQ(ref->ref_class, "T" + std::to_string(i));
    EXPECT_NE(w.catalog.Find(ref->ref_class), nullptr);
  }
  // E1 catalogs have neither targets nor refs.
  QuerySpec e1 = PaperQuery(1, 3, 5);
  ASSERT_OK_AND_ASSIGN(Workload w1, MakeWorkload(*Rules()->algebra, e1));
  EXPECT_EQ(w1.catalog.size(), 4u);
  EXPECT_EQ(w1.catalog.Find("C1")->FindAttr("ref"), nullptr);
  EXPECT_FALSE(w1.catalog.Find("C1")->HasIndexOn("bc"));
}

TEST(MakeWorkload, DeterministicPerSeed) {
  QuerySpec spec = PaperQuery(7, 3, 1234);
  ASSERT_OK_AND_ASSIGN(Workload a, MakeWorkload(*Rules()->algebra, spec));
  ASSERT_OK_AND_ASSIGN(Workload b, MakeWorkload(*Rules()->algebra, spec));
  EXPECT_EQ(a.query->ToString(*Rules()->algebra),
            b.query->ToString(*Rules()->algebra));
  EXPECT_TRUE(a.query->Equals(*b.query));
  EXPECT_EQ(a.catalog.Find("C1")->cardinality(),
            b.catalog.Find("C1")->cardinality());
  // Different seeds give different cardinalities (with high probability
  // across three classes).
  spec.seed = 99;
  ASSERT_OK_AND_ASSIGN(Workload c, MakeWorkload(*Rules()->algebra, spec));
  bool any_diff = false;
  for (int i = 1; i <= 4; ++i) {
    any_diff |= a.catalog.Find("C" + std::to_string(i))->cardinality() !=
                c.catalog.Find("C" + std::to_string(i))->cardinality();
  }
  EXPECT_TRUE(any_diff);
}

TEST(MakeWorkload, StructureSeedZeroPreservesLegacyStream) {
  // structure_seed = 0 is the default and must reproduce the historical
  // single-stream generation byte for byte: the same queries and catalogs
  // that every committed baseline and golden file were generated from.
  QuerySpec legacy = PaperQuery(7, 3, 1234);
  QuerySpec explicit_zero = PaperQuery(7, 3, 1234);
  explicit_zero.structure_seed = 0;
  ASSERT_OK_AND_ASSIGN(Workload a, MakeWorkload(*Rules()->algebra, legacy));
  ASSERT_OK_AND_ASSIGN(Workload b,
                       MakeWorkload(*Rules()->algebra, explicit_zero));
  // TreeString includes descriptor annotations (the join predicates), which
  // the flat ToString omits.
  EXPECT_EQ(a.query->TreeString(*Rules()->algebra),
            b.query->TreeString(*Rules()->algebra));
  EXPECT_TRUE(a.query->Equals(*b.query));
  EXPECT_EQ(a.catalog.ToString(), b.catalog.ToString());
}

TEST(MakeWorkload, StructureSeedVariesJoinAttrsButNotCatalog) {
  // A nonzero structure_seed moves the join-attribute choices onto their
  // own RNG stream: the catalog (cardinalities, distinct counts) is fixed
  // entirely by `seed`, while the query shape may change. Scan a few
  // structure seeds to find one that actually flips an attribute choice;
  // each join draws two fair coins, so a handful of seeds suffices.
  QuerySpec base = PaperQuery(7, 3, 1234);
  ASSERT_OK_AND_ASSIGN(Workload ref, MakeWorkload(*Rules()->algebra, base));
  // TreeString carries the join predicates (descriptor annotations);
  // the flat ToString only shows operator and class names.
  const std::string ref_query = ref.query->TreeString(*Rules()->algebra);
  bool any_query_diff = false;
  for (uint64_t s = 1; s <= 8; ++s) {
    QuerySpec spec = base;
    spec.structure_seed = s;
    ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(*Rules()->algebra, spec));
    EXPECT_EQ(w.catalog.ToString(), ref.catalog.ToString())
        << "structure_seed " << s << " must not perturb the catalog";
    any_query_diff |=
        w.query->TreeString(*Rules()->algebra) != ref_query;
  }
  EXPECT_TRUE(any_query_diff)
      << "no structure seed in [1,8] changed any join attribute";
}

TEST(MakeWorkload, StructureSeedIsDeterministic) {
  QuerySpec spec = PaperQuery(7, 3, 1234);
  spec.structure_seed = 5;
  ASSERT_OK_AND_ASSIGN(Workload a, MakeWorkload(*Rules()->algebra, spec));
  ASSERT_OK_AND_ASSIGN(Workload b, MakeWorkload(*Rules()->algebra, spec));
  EXPECT_EQ(a.query->TreeString(*Rules()->algebra),
            b.query->TreeString(*Rules()->algebra));
  EXPECT_TRUE(a.query->Equals(*b.query));
}

TEST(MakeWorkload, SelectionConstantsAreInDomain) {
  QuerySpec spec = PaperQuery(5, 3, 77);
  spec.min_card = 5;
  spec.max_card = 20;
  ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(*Rules()->algebra, spec));
  auto sel = w.query->descriptor().Get(opt::kSelectionPredicate);
  ASSERT_TRUE(sel.ok());
  for (const algebra::PredicateRef& c : algebra::Conjuncts(sel->AsPred())) {
    ASSERT_TRUE(c->kind() == algebra::Predicate::Kind::kCmp);
    const algebra::Attr& attr =
        c->left().is_attr() ? c->left().attr : c->right().attr;
    const algebra::Scalar& k =
        c->left().is_attr() ? c->right().scalar : c->left().scalar;
    int64_t domain = w.catalog.DistinctValues(attr);
    ASSERT_TRUE(std::holds_alternative<int64_t>(k.v));
    EXPECT_LT(std::get<int64_t>(k.v), domain) << attr.ToString();
    EXPECT_GE(std::get<int64_t>(k.v), 0);
  }
}

TEST(MakeWorkload, RejectsZeroJoins) {
  QuerySpec spec;
  spec.num_joins = 0;
  EXPECT_FALSE(MakeWorkload(*Rules()->algebra, spec).ok());
}

TEST(MakeDatabase, ConsistentWithCatalog) {
  QuerySpec spec = PaperQuery(8, 2, 31);  // E4 with indices.
  spec.min_card = 5;
  spec.max_card = 20;
  ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(*Rules()->algebra, spec));
  ASSERT_OK_AND_ASSIGN(exec::Database db, MakeDatabase(w.catalog, 4));
  for (const std::string& name : w.catalog.FileNames()) {
    const catalog::StoredFile* meta = w.catalog.Find(name);
    const exec::Table* table = db.Find(name);
    ASSERT_NE(table, nullptr) << name;
    EXPECT_EQ(static_cast<int64_t>(table->NumRows()), meta->cardinality());
    // oid column equals the row position.
    int oid_pos = table->schema().Find(algebra::Attr{name, "oid"});
    ASSERT_GE(oid_pos, 0);
    for (size_t r = 0; r < table->NumRows(); ++r) {
      EXPECT_EQ(table->row(r)[static_cast<size_t>(oid_pos)],
                exec::Datum::Int(static_cast<int64_t>(r)));
    }
    // Reference OIDs land inside the target extent.
    for (const catalog::AttributeDef& a : meta->attrs()) {
      if (!a.is_reference()) continue;
      int pos = table->schema().Find(algebra::Attr{name, a.name});
      ASSERT_GE(pos, 0);
      const exec::Table* target = db.Find(a.ref_class);
      ASSERT_NE(target, nullptr);
      for (size_t r = 0; r < table->NumRows(); ++r) {
        int64_t oid =
            std::get<int64_t>(table->row(r)[static_cast<size_t>(pos)].v);
        EXPECT_GE(oid, 0);
        EXPECT_LT(oid, static_cast<int64_t>(target->NumRows()));
      }
    }
    // Declared indexes exist.
    for (const catalog::IndexDef& idx : meta->indices()) {
      EXPECT_TRUE(table->HasIndex(idx.attr)) << name << "." << idx.attr;
    }
  }
}

TEST(MakeDatabase, DeterministicPerSeed) {
  QuerySpec spec = PaperQuery(1, 2, 8);
  spec.min_card = 5;
  spec.max_card = 15;
  ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(*Rules()->algebra, spec));
  ASSERT_OK_AND_ASSIGN(exec::Database a, MakeDatabase(w.catalog, 3));
  ASSERT_OK_AND_ASSIGN(exec::Database b, MakeDatabase(w.catalog, 3));
  EXPECT_EQ(a.Find("C1")->rows(), b.Find("C1")->rows());
  ASSERT_OK_AND_ASSIGN(exec::Database c, MakeDatabase(w.catalog, 4));
  EXPECT_NE(a.Find("C1")->rows(), c.Find("C1")->rows());
}

// ---------------------------------------------------------------------------
// Join-graph shapes (chain / star / clique).

// Collects the predicate text of every JOIN node, outermost first. Joins
// are the only binary nodes of the generated trees; their predicate lives
// in the descriptor's join_predicate property.
std::vector<std::string> JoinPredicates(const algebra::Expr& e,
                                        const algebra::Algebra& algebra) {
  auto props = opt::Props::FromSchema(algebra.properties());
  EXPECT_TRUE(props.ok());
  std::vector<std::string> preds;
  std::vector<const algebra::Expr*> stack{&e};
  while (!stack.empty()) {
    const algebra::Expr* cur = stack.back();
    stack.pop_back();
    if (cur->num_children() == 2) {
      preds.push_back(
          cur->descriptor().Get(props->join_predicate).AsPred()->ToString());
    }
    for (const auto& c : cur->children()) stack.push_back(c.get());
  }
  return preds;
}

TEST(MakeWorkload, DefaultShapeIsChainAndUnchanged) {
  QuerySpec spec = PaperQuery(1, 3, 7);
  ASSERT_OK_AND_ASSIGN(Workload legacy, MakeWorkload(*Rules()->algebra, spec));
  spec.shape = JoinShape::kChain;
  ASSERT_OK_AND_ASSIGN(Workload chain, MakeWorkload(*Rules()->algebra, spec));
  // kChain is the default and is draw-for-draw identical to the historical
  // generator.
  EXPECT_EQ(legacy.query->ToString(*Rules()->algebra),
            chain.query->ToString(*Rules()->algebra));
  // Each chain predicate links adjacent classes C_i, C_{i+1}.
  auto preds = JoinPredicates(*chain.query, *Rules()->algebra);
  ASSERT_EQ(preds.size(), 3u);
  for (const std::string& p : preds) EXPECT_NE(p.find(" = "), std::string::npos);
}

TEST(MakeWorkload, StarShapePredicatesAllReferenceTheHub) {
  QuerySpec spec = PaperQuery(1, 4, 7);
  spec.shape = JoinShape::kStar;
  ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(*Rules()->algebra, spec));
  auto preds = JoinPredicates(*w.query, *Rules()->algebra);
  ASSERT_EQ(preds.size(), 4u);
  for (const std::string& p : preds) {
    EXPECT_NE(p.find("C1."), std::string::npos) << p;
  }
  // Catalog is shape-independent: same classes as the chain query.
  EXPECT_EQ(w.catalog.size(), 5u);
}

TEST(MakeWorkload, CliqueShapePredicatesEveryPair) {
  QuerySpec spec = PaperQuery(1, 3, 7);
  spec.shape = JoinShape::kClique;
  ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(*Rules()->algebra, spec));
  // Join i (1-based class C_{i+1}) carries one equality per earlier class:
  // the union over all joins covers every pair.
  auto preds = JoinPredicates(*w.query, *Rules()->algebra);
  ASSERT_EQ(preds.size(), 3u);
  int eqs = 0;
  for (const std::string& p : preds) {
    for (size_t at = p.find(" = "); at != std::string::npos;
         at = p.find(" = ", at + 1)) {
      ++eqs;
    }
  }
  // 4 classes -> C(4,2) = 6 equality conjuncts across the three joins.
  EXPECT_EQ(eqs, 6);
  // The innermost (first applied) join predicates exactly one pair; the
  // outermost references every earlier class.
  const std::string& outer = preds.front();
  for (int j = 1; j <= 3; ++j) {
    EXPECT_NE(outer.find("C" + std::to_string(j) + "."), std::string::npos)
        << outer;
  }
}

TEST(MakeWorkload, ShapesShareTheCatalogDraws) {
  // Shape only affects join predicates, never cardinalities or indexes.
  QuerySpec spec = PaperQuery(2, 3, 11);
  ASSERT_OK_AND_ASSIGN(Workload chain, MakeWorkload(*Rules()->algebra, spec));
  spec.shape = JoinShape::kStar;
  ASSERT_OK_AND_ASSIGN(Workload star, MakeWorkload(*Rules()->algebra, spec));
  spec.shape = JoinShape::kClique;
  ASSERT_OK_AND_ASSIGN(Workload clique, MakeWorkload(*Rules()->algebra, spec));
  for (int i = 1; i <= 4; ++i) {
    const std::string name = "C" + std::to_string(i);
    ASSERT_NE(chain.catalog.Find(name), nullptr);
    EXPECT_EQ(chain.catalog.Find(name)->cardinality(),
              star.catalog.Find(name)->cardinality());
    EXPECT_EQ(chain.catalog.Find(name)->cardinality(),
              clique.catalog.Find(name)->cardinality());
  }
}

// ---------------------------------------------------------------------------
// Parameter-varying traffic (DESIGN.md §8).

TEST(MakeWorkload, ParamSeedVariesOnlyTheSelectionConstants) {
  QuerySpec spec = PaperQuery(5, 3, 21);
  ASSERT_OK_AND_ASSIGN(Workload legacy, MakeWorkload(*Rules()->algebra, spec));
  spec.param_seed = 7;
  ASSERT_OK_AND_ASSIGN(Workload a, MakeWorkload(*Rules()->algebra, spec));
  spec.param_seed = 8;
  ASSERT_OK_AND_ASSIGN(Workload b, MakeWorkload(*Rules()->algebra, spec));

  // The catalog draws never touch the param stream.
  EXPECT_EQ(legacy.catalog.ToString(), a.catalog.ToString());
  EXPECT_EQ(a.catalog.ToString(), b.catalog.ToString());

  // The queries differ in their serialized bytes (different literals;
  // Expr::ToString elides predicates, so compare fingerprints)...
  const auto& algebra = *Rules()->algebra;
  algebra::DescriptorStore store(&algebra.properties(),
                                 algebra::StoreMode::kSerial);
  std::string qa, qb;
  a.query->Fingerprint(&store, &qa);
  b.query->Fingerprint(&store, &qb);
  EXPECT_NE(qa, qb);

  // ...but canonicalize to byte-identical skeletons: literals are the ONLY
  // difference.
  algebra::ParameterizedQuery pa = algebra::ParameterizeQuery(*a.query);
  algebra::ParameterizedQuery pb = algebra::ParameterizeQuery(*b.query);
  algebra::ParameterizedQuery pl = algebra::ParameterizeQuery(*legacy.query);
  ASSERT_NE(pa.skeleton, nullptr);
  ASSERT_NE(pb.skeleton, nullptr);
  ASSERT_NE(pl.skeleton, nullptr);
  std::string fa, fb, fl;
  pa.skeleton->Fingerprint(&store, &fa);
  pb.skeleton->Fingerprint(&store, &fb);
  pl.skeleton->Fingerprint(&store, &fl);
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(fa, fl);
  EXPECT_EQ(pa.slots.size(), 4u);  // one bc_i = ?k per class
}

TEST(MakeWorkload, BindQueryRoundTripsToTheOriginalQuery) {
  QuerySpec spec = PaperQuery(7, 2, 33);
  spec.param_seed = 3;
  ASSERT_OK_AND_ASSIGN(Workload w, MakeWorkload(*Rules()->algebra, spec));
  algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*w.query);
  ASSERT_NE(pq.skeleton, nullptr);
  ASSERT_FALSE(pq.slots.empty());

  std::vector<algebra::Scalar> values;
  for (const algebra::ParamSlot& s : pq.slots) values.push_back(s.value);
  algebra::ExprPtr rebound = algebra::BindQuery(*pq.skeleton, values);
  ASSERT_NE(rebound, nullptr);

  algebra::DescriptorStore store(&Rules()->algebra->properties(),
                                 algebra::StoreMode::kSerial);
  std::string original, round_trip;
  w.query->Fingerprint(&store, &original);
  rebound->Fingerprint(&store, &round_trip);
  EXPECT_EQ(original, round_trip);

  // An out-of-range ordinal binds to null, never to a wrong query.
  values.pop_back();
  EXPECT_EQ(algebra::BindQuery(*pq.skeleton, values), nullptr);
}

TEST(ZipfSampler, RankFrequencyFollowsThePowerLaw) {
  // Under s = 1, rank k should be drawn proportionally to 1/(k+1): rank 0
  // twice as often as rank 1 and n times as often as rank n-1.
  ZipfSampler zipf(8, 1.0, 99);
  std::vector<int> counts(8, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const int k = zipf.Next();
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 8);
    ++counts[k];
  }
  for (int k = 1; k < 8; ++k) {
    EXPECT_LT(counts[k], counts[k - 1]) << "rank " << k;
  }
  const double head_to_second =
      static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
  EXPECT_NEAR(head_to_second, 2.0, 0.3);
  const double head_to_tail =
      static_cast<double>(counts[0]) / static_cast<double>(counts[7]);
  EXPECT_NEAR(head_to_tail, 8.0, 2.0);
}

TEST(ZipfSampler, DeterministicUnderAFixedSeed) {
  ZipfSampler a(16, 1.1, 42);
  ZipfSampler b(16, 1.1, 42);
  ZipfSampler c(16, 1.1, 43);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const int ka = a.Next();
    EXPECT_EQ(ka, b.Next());
    differs = differs || ka != c.Next();
  }
  EXPECT_TRUE(differs);  // a different seed is a different stream
}

TEST(TrafficGenerator, DeterministicAndTenantStreamsAreIndependent) {
  TrafficOptions options;
  options.num_skeletons = 8;
  options.num_tenants = 3;
  ASSERT_OK_AND_ASSIGN(TrafficGenerator a,
                       TrafficGenerator::Make(*Rules()->algebra, options));
  ASSERT_OK_AND_ASSIGN(TrafficGenerator b,
                       TrafficGenerator::Make(*Rules()->algebra, options));

  const auto& algebra = *Rules()->algebra;
  std::vector<std::vector<int>> per_tenant(3);
  for (int i = 0; i < 300; ++i) {
    TrafficRequest ra = a.Next();
    TrafficRequest rb = b.Next();
    // Same options + seed: the two generators replay one stream.
    EXPECT_EQ(ra.skeleton, rb.skeleton);
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_EQ(ra.query->ToString(algebra), rb.query->ToString(algebra));
    per_tenant[static_cast<size_t>(ra.tenant)].push_back(ra.skeleton);
  }
  // Tenants are served round-robin, each drawing from its own stream: no
  // two tenants replay the same skeleton sequence.
  ASSERT_EQ(per_tenant[0].size(), 100u);
  EXPECT_NE(per_tenant[0], per_tenant[1]);
  EXPECT_NE(per_tenant[1], per_tenant[2]);
}

TEST(TrafficGenerator, RequestsVaryOnlyInConstantsWithinASkeleton) {
  TrafficOptions options;
  // Skeleton i is the Q{(i%8)+1} template: 8 skeletons cover Q5..Q8, the
  // parameterized (selection-bearing) half of the pool.
  options.num_skeletons = 8;
  options.num_tenants = 2;
  ASSERT_OK_AND_ASSIGN(TrafficGenerator gen,
                       TrafficGenerator::Make(*Rules()->algebra, options));
  algebra::DescriptorStore store(&Rules()->algebra->properties(),
                                 algebra::StoreMode::kSerial);
  // Requests of one parameterized skeleton must canonicalize to one
  // skeleton fingerprint even as their rendered constants vary.
  std::vector<std::string> fingerprints(8);
  std::vector<bool> seen(8, false);
  bool constants_varied = false;
  std::vector<std::string> last_text(8);
  for (int i = 0; i < 200; ++i) {
    TrafficRequest r = gen.Next();
    if (!gen.parameterized(r.skeleton)) continue;
    algebra::ParameterizedQuery pq = algebra::ParameterizeQuery(*r.query);
    ASSERT_NE(pq.skeleton, nullptr) << "skeleton " << r.skeleton;
    std::string fp;
    pq.skeleton->Fingerprint(&store, &fp);
    const size_t k = static_cast<size_t>(r.skeleton);
    if (seen[k]) {
      EXPECT_EQ(fp, fingerprints[k]) << "skeleton " << r.skeleton;
    } else {
      fingerprints[k] = fp;
      seen[k] = true;
    }
    std::string bytes;
    r.query->Fingerprint(&store, &bytes);
    if (!last_text[k].empty() && bytes != last_text[k]) {
      constants_varied = true;
    }
    last_text[k] = std::move(bytes);
  }
  EXPECT_TRUE(constants_varied);
}

}  // namespace
}  // namespace prairie::workload
