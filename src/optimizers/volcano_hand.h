// Hand-coded Volcano rule sets: the baseline of the paper's experiments.
//
// These construct the same optimizers as the P2V-translated Prairie
// specifications, but with rule conditions, property transformations and
// cost functions written directly as compiled C++ (the moral equivalent
// of the support-function C code a Volcano user writes by hand). The
// benchmark harness compares their optimization times against the
// P2V-generated, AST-interpreted rule sets (Figures 10-13).

#pragma once

#include <memory>

#include "algebra/predicate.h"
#include "catalog/catalog.h"
#include "volcano/rules.h"

namespace prairie::opt {

/// Hand-coded Volcano version of the relational optimizer
/// (3 trans_rules, 5 impl_rules, 1 enforcer after compaction).
common::Result<std::shared_ptr<volcano::RuleSet>> BuildRelationalVolcano();

/// Hand-coded Volcano version of the OODB optimizer
/// (17 trans_rules, 9 impl_rules, 1 enforcer).
common::Result<std::shared_ptr<volcano::RuleSet>> BuildOodbVolcano();

/// The hand-coded rules' own attribute-set support functions, declared here
/// so tests can hold them against the native helpers that the interpreted
/// and emitted deployments call. A predicate's referenced attributes are
/// the union of its conjuncts' lists, so each tests the conjuncts' cached
/// id sets one by one.
namespace hand {

/// The conjunction of the conjuncts of `pred` that refer only to `attrs`
/// (over) or not (!over); `pred` itself when every conjunct qualifies.
algebra::PredicateRef ConjOver(const algebra::PredicateRef& pred,
                               algebra::PooledAttrs attrs, bool over);

/// True if `pred` refers to an attribute of `a` and to one of `b`.
bool RefersBoth(const algebra::PredicateRef& pred, algebra::PooledAttrs a,
                algebra::PooledAttrs b);

/// True if every attribute `pred` refers to is in `attrs` and not in
/// `excluded`.
bool RefersOnly(const algebra::PredicateRef& pred, algebra::PooledAttrs attrs,
                algebra::PooledAttrs excluded = algebra::EmptyAttrs());

/// For each equi-join conjunct of `pred`, the side's attribute that `side`
/// contains (the left one when both are).
algebra::AttrList SideJoinAttrs(const algebra::PredicateRef& pred,
                                algebra::PooledAttrs side);

/// True if some equi-join conjunct of `pred` is "l.ref = r.oid": l.ref a
/// reference attribute in `left` whose class is that of r.oid in `right`.
bool IsRefJoin(const algebra::PredicateRef& pred, algebra::PooledAttrs left,
               algebra::PooledAttrs right, const catalog::Catalog& cat);

}  // namespace hand

}  // namespace prairie::opt
