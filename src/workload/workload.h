// Workload generation for the paper's experiments (§4.3).
//
// Queries Q1..Q8 are derived from four expression templates over N-way
// linear join graphs:
//   E1: RET(C1) JOIN ... JOIN RET(C_{N+1})
//   E2: like E1, but each retrieval is followed by a MAT (attribute
//       materialization via a reference attribute)
//   E3: SELECT over E1 (conjunctive equality selection bc_i = i)
//   E4: SELECT over E2
// Odd queries run without indices; even queries give every base class a
// single index on the attribute its selection predicate references.
// Cardinalities vary with the seed; the paper averages 5 seeds per point.

#pragma once

#include "algebra/expr.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/table.h"

namespace prairie::workload {

/// Which expression template to instantiate.
enum class ExprKind { kE1 = 1, kE2 = 2, kE3 = 3, kE4 = 4 };

/// Shape of the join graph over classes C1..C_{N+1}. The paper's
/// experiments use chains; star and clique are adversarial shapes for the
/// big-join workloads — a star funnels every join through one hub group, a
/// clique predicates every class pair and maximizes the number of
/// cross-group merges the transformation rules can trigger.
enum class JoinShape {
  kChain,   ///< C_i joins C_{i+1} (the paper's linear graphs; default).
  kStar,    ///< Every C_i (i > 1) joins the hub C1.
  kClique,  ///< Join i carries equality predicates against all C_j, j < i.
};

/// \brief Parameters of one generated query instance.
struct QuerySpec {
  ExprKind expr = ExprKind::kE1;
  JoinShape shape = JoinShape::kChain;
  int num_joins = 2;          ///< N: the query joins N+1 classes.
  bool with_indexes = false;  ///< One index per base class (on "bc").
  uint64_t seed = 1;          ///< Drives cardinalities and join attrs.
  /// 0 (default): join-attribute choices draw from the same stream as
  /// `seed` — byte-identical to historical behavior. Non-zero: they draw
  /// from a separate RNG seeded here, so query *structure* varies while
  /// the catalog (cardinalities, indexes) stays fixed by `seed` — e.g. to
  /// generate many distinct queries against one catalog for plan-cache
  /// working-set experiments.
  uint64_t structure_seed = 0;
  /// 0 (default): the selection constants of E3/E4 are the paper's fixed
  /// bc_i = (i+1) mod domain — byte-identical to historical behavior.
  /// Non-zero: each constant draws uniformly from its attribute's domain
  /// on an RNG seeded here, so queries vary ONLY in predicate literals
  /// (catalog and structure fixed by seed/structure_seed) — the shape the
  /// parameterized plan cache canonicalizes away.
  uint64_t param_seed = 0;
  /// Cardinality range for base classes (the bench uses large values; the
  /// execution tests use small ones so results stay enumerable).
  int64_t min_card = 100;
  int64_t max_card = 10000;
};

/// The paper's query naming: Q1..Q8 -> (expression, index flag).
QuerySpec PaperQuery(int number, int num_joins, uint64_t seed);

/// \brief One generated problem instance.
struct Workload {
  catalog::Catalog catalog;
  algebra::ExprPtr query;
};

/// Generates the catalog (classes C1..C_{N+1}, plus referenced target
/// classes T_i for E2/E4) and the initialized operator tree for `spec`,
/// against the given optimizer algebra. E3/E4 require an algebra with a
/// SELECT operator (the OODB algebra); E1 works with both shipped
/// algebras.
common::Result<Workload> MakeWorkload(const algebra::Algebra& algebra,
                                      const QuerySpec& spec);

/// Populates an executable in-memory database consistent with `catalog`:
/// every class gets `oid` = row position, random attribute values bounded
/// by the attribute's distinct-value count, valid reference OIDs, and
/// indexes where the catalog declares them.
common::Result<exec::Database> MakeDatabase(const catalog::Catalog& catalog,
                                            uint64_t seed);

}  // namespace prairie::workload
