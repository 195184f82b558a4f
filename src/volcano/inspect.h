// Memo search-space inspector (observability): dump a finished memo.
//
// The memo is the optimizer's whole search state — equivalence classes,
// the multi-expressions each class holds, the per-requirement winners and
// (since the provenance work) the rule edges that explain why each
// expression and winner exists. This header renders that structure in two
// offline formats:
//
//   - Graphviz DOT: one record node per live group listing its
//     multi-expressions and winners; solid edges for expression -> child
//     group references, dashed edges for winner provenance (the optimized
//     child the chosen plan consumed). `dot -Tsvg` turns a Q1 memo into a
//     picture of the search space.
//   - JSON: the same structure as data (one document), for scripted
//     assertions and diffing across optimizer changes.
//
// Both renderers canonicalize through Memo::Find: merged-away groups and
// dropped expressions are skipped entirely and every child/provenance
// reference resolves to the live representative, so a dump taken after
// merges never names a dead group. Output is deterministic for a
// deterministic search (groups in allocation order, winners sorted by
// interned requirement id).

#pragma once

#include <string>

#include "common/status.h"
#include "volcano/memo.h"

namespace prairie::volcano {

/// \brief Renders the memo as a Graphviz DOT digraph (see file comment).
std::string MemoToDot(const Memo& memo, const RuleSet& rules);

/// \brief Renders the memo as one JSON document (see file comment).
std::string MemoToJson(const Memo& memo, const RuleSet& rules);

/// \brief Writes the memo dump to `path`, picking the format from the
/// extension: `.dot` -> DOT, `.json` -> JSON. Any other extension is an
/// InvalidArgument.
common::Status WriteMemoDump(const std::string& path, const Memo& memo,
                             const RuleSet& rules);

}  // namespace prairie::volcano
