#include "volcano/profile.h"

#include <algorithm>
#include <fstream>

#include "common/strings.h"

namespace prairie::volcano {

using common::Status;
using common::TraceEvent;
using common::TraceEventKind;

size_t RuleProfile::TotalTransFired() const {
  size_t n = 0;
  for (const RuleProfileRow& r : trans) n += r.fired;
  return n;
}

namespace {

// The self time of every span event (0 for instants): its duration minus
// the durations of the spans it most directly encloses. Per thread, spans
// are visited in start order, an enclosing span before the spans it
// contains (the longer first on equal starts); a stack holds the spans
// still open at the visited span's start, and its top encloses it.
std::vector<uint64_t> SelfTimes(const std::vector<TraceEvent>& events) {
  std::vector<size_t> spans;
  for (size_t i = 0; i < events.size(); ++i) {
    if (common::IsSpanKind(events[i].kind)) spans.push_back(i);
  }
  std::sort(spans.begin(), spans.end(), [&](size_t a, size_t b) {
    const TraceEvent& x = events[a];
    const TraceEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
    return x.dur_ns > y.dur_ns;
  });
  const auto end_ns = [&](size_t i) {
    return events[i].ts_ns + events[i].dur_ns;
  };
  std::vector<uint64_t> self(events.size(), 0);
  std::vector<size_t> open;
  for (size_t i : spans) {
    const TraceEvent& e = events[i];
    while (!open.empty() && (events[open.back()].tid != e.tid ||
                             end_ns(open.back()) <= e.ts_ns)) {
      open.pop_back();
    }
    self[i] = e.dur_ns;
    if (!open.empty()) {
      uint64_t& parent = self[open.back()];
      parent -= std::min(parent, e.dur_ns);
    }
    open.push_back(i);
  }
  return self;
}

void Accumulate(std::vector<RuleProfileRow>* rows, int rule,
                uint64_t self_ns) {
  if (rule < 0 || static_cast<size_t>(rule) >= rows->size()) return;
  RuleProfileRow& row = (*rows)[static_cast<size_t>(rule)];
  ++row.attempts;
  row.self_ns += self_ns;
  row.max_ns = std::max(row.max_ns, self_ns);
}

void AppendSection(const char* title, const std::vector<RuleProfileRow>& rows,
                   std::string* out) {
  // Sort by cumulative self time so the expensive rules lead.
  std::vector<const RuleProfileRow*> order;
  for (const RuleProfileRow& r : rows) {
    if (r.attempts > 0) order.push_back(&r);
  }
  if (order.empty()) return;
  std::sort(order.begin(), order.end(),
            [](const RuleProfileRow* a, const RuleProfileRow* b) {
              return a->self_ns > b->self_ns;
            });
  size_t width = 4;
  for (const RuleProfileRow* r : order) width = std::max(width, r->name.size());
  *out += common::StringPrintf("%s\n  %-*s %10s %10s %12s %12s\n", title,
                               static_cast<int>(width), "rule", "attempts",
                               "fired", "self_us", "max_us");
  for (const RuleProfileRow* r : order) {
    *out += common::StringPrintf(
        "  %-*s %10zu %10zu %12.1f %12.1f\n", static_cast<int>(width),
        r->name.c_str(), r->attempts, r->fired,
        static_cast<double>(r->self_ns) / 1e3,
        static_cast<double>(r->max_ns) / 1e3);
  }
}

}  // namespace

std::string RuleProfile::ToTable() const {
  std::string out;
  AppendSection("transformation rules:", trans, &out);
  AppendSection("implementation rules:", impl, &out);
  AppendSection("enforcers:", enforcers, &out);
  if (out.empty()) out = "(no rule activity traced)\n";
  out += common::StringPrintf("events: %zu", events);
  if (dropped > 0) {
    out += common::StringPrintf(
        "  dropped: %zu (ring wrapped; counts are a suffix of the search)",
        dropped);
  }
  out += "\n";
  return out;
}

RuleProfile BuildRuleProfile(const std::vector<TraceEvent>& events,
                             const RuleSet& rules, size_t dropped) {
  RuleProfile p;
  p.trans.resize(rules.trans_rules.size());
  p.impl.resize(rules.impl_rules.size());
  p.enforcers.resize(rules.enforcers.size());
  for (size_t i = 0; i < rules.trans_rules.size(); ++i) {
    p.trans[i].name = rules.trans_rules[i].name;
  }
  for (size_t i = 0; i < rules.impl_rules.size(); ++i) {
    p.impl[i].name = rules.impl_rules[i].name;
  }
  for (size_t i = 0; i < rules.enforcers.size(); ++i) {
    p.enforcers[i].name = rules.enforcers[i].name;
  }
  p.events = events.size();
  p.dropped = dropped;
  const std::vector<uint64_t> self = SelfTimes(events);
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    switch (e.kind) {
      case TraceEventKind::kTransAttempt:
        Accumulate(&p.trans, e.rule, self[i]);
        break;
      case TraceEventKind::kImplAttempt:
        Accumulate(&p.impl, e.rule, self[i]);
        break;
      case TraceEventKind::kEnforcerAttempt:
        Accumulate(&p.enforcers, e.rule, self[i]);
        break;
      case TraceEventKind::kTransFire:
        if (e.rule >= 0 && static_cast<size_t>(e.rule) < p.trans.size()) {
          ++p.trans[static_cast<size_t>(e.rule)].fired;
        }
        break;
      case TraceEventKind::kPlanCosted:
        if (e.rule >= 0 && static_cast<size_t>(e.rule) < p.impl.size()) {
          ++p.impl[static_cast<size_t>(e.rule)].fired;
        }
        break;
      default:
        break;
    }
  }
  return p;
}

namespace {

std::string RuleName(const RuleSet& rules, TraceEventKind kind, int rule) {
  switch (kind) {
    case TraceEventKind::kTransAttempt:
    case TraceEventKind::kTransFire:
      if (rule >= 0 && static_cast<size_t>(rule) < rules.trans_rules.size()) {
        return rules.trans_rules[static_cast<size_t>(rule)].name;
      }
      break;
    case TraceEventKind::kImplAttempt:
    case TraceEventKind::kPlanCosted:
      if (rule >= 0 && static_cast<size_t>(rule) < rules.impl_rules.size()) {
        return rules.impl_rules[static_cast<size_t>(rule)].name;
      }
      break;
    case TraceEventKind::kEnforcerAttempt:
      if (rule >= 0 && static_cast<size_t>(rule) < rules.enforcers.size()) {
        return rules.enforcers[static_cast<size_t>(rule)].name;
      }
      break;
    default:
      break;
  }
  return std::string();
}

std::string EventName(const RuleSet& rules, const TraceEvent& e) {
  const std::string rule = RuleName(rules, e.kind, e.rule);
  switch (e.kind) {
    case TraceEventKind::kGroupExpand:
      return common::StringPrintf("expand g%d", e.group);
    case TraceEventKind::kGroupOptimize:
      return common::StringPrintf("optimize g%d", e.group);
    case TraceEventKind::kTransAttempt:
      return "T:" + rule;
    case TraceEventKind::kImplAttempt:
      return "I:" + rule;
    case TraceEventKind::kEnforcerAttempt:
      return "E:" + rule;
    case TraceEventKind::kTransFire:
      return "fire:" + rule;
    case TraceEventKind::kPlanCosted:
      return "costed:" + rule;
    case TraceEventKind::kWinnerSelected:
      return common::StringPrintf("winner g%d", e.group);
    case TraceEventKind::kPrune:
      return "prune";
    case TraceEventKind::kCycleGuard:
      return "cycle";
    // Executor events carry the algebra OpId in `desc` (there is no group
    // or rule identity at run time).
    case TraceEventKind::kExecQuery:
      return "execute";
    case TraceEventKind::kExecOperator:
    case TraceEventKind::kExecQError: {
      std::string alg = "op";
      if (rules.algebra != nullptr && e.desc >= 0 &&
          e.desc < rules.algebra->size()) {
        alg = rules.algebra->name(e.desc);
      }
      return (e.kind == TraceEventKind::kExecOperator ? "exec:" : "qerror:") +
             alg;
    }
  }
  return "event";
}

}  // namespace

Status WriteChromeTrace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        const RuleSet& rules, size_t dropped) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::ExecError("cannot open trace output file '" + path + "'");
  }
  // Rebase timestamps so the trace starts at t=0 (steady-clock epochs are
  // arbitrary); trace_event timestamps are microseconds.
  uint64_t t0 = 0;
  bool first = true;
  for (const TraceEvent& e : events) {
    if (first || e.ts_ns < t0) t0 = e.ts_ns;
    first = false;
  }
  out << "{\"traceEvents\":[";
  const char* sep = "\n";
  for (const TraceEvent& e : events) {
    const double ts_us = static_cast<double>(e.ts_ns - t0) / 1e3;
    out << sep;
    sep = ",\n";
    out << common::StringPrintf(
        "{\"name\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f",
        common::JsonEscape(EventName(rules, e)).c_str(), e.tid, ts_us);
    if (common::IsSpanKind(e.kind)) {
      out << common::StringPrintf(
          ",\"ph\":\"X\",\"dur\":%.3f",
          static_cast<double>(e.dur_ns) / 1e3);
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    out << common::StringPrintf(
        ",\"args\":{\"group\":%d,\"rule\":%d,\"desc\":%d,\"depth\":%d,"
        "\"cost\":%g}}",
        e.group, e.rule, e.desc, e.depth, e.cost);
  }
  out << "\n],\"metadata\":{\"dropped_events\":" << dropped << "}}\n";
  out.close();
  if (!out) {
    return Status::ExecError("error writing trace output file '" + path +
                             "'");
  }
  return Status::OK();
}

}  // namespace prairie::volcano
