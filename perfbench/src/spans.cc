#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

using prairie::common::Status;

int32_t Tracer::Open(const char* name, uint32_t request, uint64_t start_ns) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = start_ns;
  spans_.push_back(span);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::Close(int32_t id, uint64_t end_ns) {
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
  // Phases end in reverse order of their start; tolerate an out-of-order
  // close by removing the span wherever it sits on the stack.
  auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

Ledger Analyze(const std::vector<Span>& spans) {
  constexpr double kTolerance = 0.05;
  const size_t n = spans.size();
  std::vector<std::vector<size_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  // Self time: the span minus the union of its children's intervals,
  // clipped to the span itself.
  std::vector<double> self(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    for (size_t c : children[i]) {
      const uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    uint64_t union_ns = 0;
    uint64_t cursor = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const uint64_t from = std::max(lo, cursor);
      if (hi > from) union_ns += hi - from;
      cursor = std::max(cursor, hi);
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns) -
              static_cast<double>(union_ns);
  }
  // A parent is opened before its children, so it has the smaller index:
  // one reverse pass folds every subtree's self time into its root.
  std::vector<double> subtree = self;
  for (size_t i = n; i-- > 0;) {
    if (spans[i].parent >= 0) {
      subtree[static_cast<size_t>(spans[i].parent)] += subtree[i];
    }
  }
  Ledger ledger;
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0 || std::strcmp(spans[i].name, "request") != 0) {
      continue;
    }
    const double wall = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    ++ledger.requests;
    ledger.request_wall_ns += wall;
    ledger.unattributed_ns += self[i];
    if (std::fabs(subtree[i] - wall) > kTolerance * wall) ++ledger.violations;
  }
  ledger.self_ns = std::move(self);
  return ledger;
}

void ReportLedger(const Ledger& ledger, Report* report) {
  if (ledger.violations > 0) {
    std::fprintf(stderr,
                 "perfbench: %zu of %zu requests: layer self times do not "
                 "sum to the request wall within 5%%\n",
                 ledger.violations, ledger.requests);
    report->correct = false;
  }
  report->Metric("trace.unattributed_pct",
                 ledger.request_wall_ns > 0
                     ? ledger.unattributed_ns / ledger.request_wall_ns * 100
                     : 0);
  report->Metric("trace.requests", static_cast<double>(ledger.requests));
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write spans to " + path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"request\": %u, "
                 "\"parent\": %d, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                 i, s.name, s.request, s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) {
    return Status::Internal("cannot finish writing spans to " + path);
  }
  return Status::OK();
}

}  // namespace perfbench
