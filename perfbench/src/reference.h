// Independent references for the benchmark's correctness checks.
//
// References (the naive logical evaluator, the hand-coded Volcano
// optimizer, cache-less searches) run in forked child processes before
// the timed region: their time stays out of every measurement and their
// memory out of the workload process's peak resident set.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/tuple.h"

namespace perfbench {

/// \brief A result set reduced to its row count and an order-insensitive
/// digest. Columns are taken in attribute-name order, so two plans that lay
/// out the same attributes differently digest alike (as the property tests'
/// CanonicalColumns compares them).
struct ResultDigest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const ResultDigest&) const = default;
};

ResultDigest DigestResult(const std::vector<prairie::exec::Row>& rows,
                          const prairie::exec::RowSchema& schema);

/// Worker processes for reference computations (one per core of the
/// 4-core machines the benchmark targets).
constexpr int kReferenceProcs = 4;

/// Computes `work(i)` for every i in [0, n) in `procs` forked child
/// processes and returns the strings in item order. A child that fails to
/// finish fails the whole call. Must be called while this process runs a
/// single thread.
prairie::common::Result<std::vector<std::string>> ForkMap(
    size_t n, int procs, const std::function<std::string(size_t)>& work);

}  // namespace perfbench
