// Cardinality feedback: (sub-plan fingerprint) -> observed row counts.
//
// After an instrumented run, FeedbackJson walks the executed access plan
// and its ExecStats tree in lockstep and renders, for every algorithm
// sub-plan, the optimizer's estimate and the actual rows the operator
// produced — keyed by the sub-plan's Expr::Fingerprint serialization. The
// key is the full collision-free byte string (the PlanCache discipline),
// so a reader can match lines across runs without trusting a hash.
// Diagnostic bundles embed the result as feedback.json.

#pragma once

#include <string>

#include "algebra/expr.h"
#include "common/result.h"
#include "exec/stats.h"

namespace prairie::exec {

/// Renders one JSON line per algorithm sub-plan of `plan`, in plan
/// pre-order (stored-file leaves have no stats node and are skipped):
/// {"key":<fingerprint bytes as lowercase hex>,"est_rows":...,
/// "actual_rows":...}, with est_rows omitted when unknown. Fingerprints
/// intern through `store`. Empty when `stats` collected nothing; Internal
/// when the trees disagree — a sign the stats did not come from this
/// plan's build.
common::Result<std::string> FeedbackJson(const algebra::Expr& plan,
                                         const ExecStats& stats,
                                         algebra::DescriptorStore* store);

}  // namespace prairie::exec
