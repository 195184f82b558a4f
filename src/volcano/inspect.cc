#include "volcano/inspect.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace prairie::volcano {

using common::Status;

namespace {

// Escaping for Graphviz record labels: the record grammar gives `{}|<>`
// structure meaning, and the label itself is a double-quoted string.
std::string DotEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
      case '\\':
      case '{':
      case '}':
      case '|':
      case '<':
      case '>':
        out += '\\';
        out += c;
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RuleNameOr(const std::vector<TransRule>& rules, int i,
                       const char* fallback) {
  if (i >= 0 && static_cast<size_t>(i) < rules.size()) return rules[i].name;
  return fallback;
}

// How a winner's plan came to be: the impl rule or enforcer recorded in its
// provenance, or the stored-file base case when neither applies.
std::string WinnerVia(const RuleSet& rules, const WinnerProv* p) {
  if (p != nullptr) {
    if (p->impl_rule >= 0 &&
        static_cast<size_t>(p->impl_rule) < rules.impl_rules.size()) {
      return rules.impl_rules[static_cast<size_t>(p->impl_rule)].name;
    }
    if (p->enforcer >= 0 &&
        static_cast<size_t>(p->enforcer) < rules.enforcers.size()) {
      return rules.enforcers[static_cast<size_t>(p->enforcer)].name;
    }
  }
  return "file";
}

std::string ExprText(const Memo& memo, const RuleSet& rules, const MExpr& m) {
  if (m.is_file) return m.file;
  std::string out = rules.algebra->name(m.op) + "(";
  std::vector<std::string> parts;
  for (GroupId c : m.children) {
    parts.push_back("g" + std::to_string(memo.Find(c)));
  }
  out += common::Join(parts, ", ") + ")";
  if (m.src_rule >= 0) {
    out += " [" + RuleNameOr(rules.trans_rules, m.src_rule, "?") + "]";
  }
  return out;
}

// Winners of one group in deterministic order (the map iterates in hash
// order, which varies run to run even for identical searches).
std::vector<const Winner*> SortedWinners(const Group& g) {
  std::vector<const Winner*> out;
  out.reserve(g.winners.size());
  for (const auto& [rid, w] : g.winners) {
    (void)rid;
    out.push_back(&w);
  }
  std::sort(out.begin(), out.end(),
            [](const Winner* a, const Winner* b) { return a->rid < b->rid; });
  return out;
}

const WinnerProv* ProvOf(const Group& g, algebra::DescriptorId rid) {
  auto it = g.prov.find(rid);
  return it == g.prov.end() ? nullptr : &it->second;
}

}  // namespace

std::string MemoToDot(const Memo& memo, const RuleSet& rules) {
  std::string out;
  out += "digraph memo {\n";
  out += "  rankdir=LR;\n";
  out += "  node [shape=record, fontname=\"monospace\", fontsize=10];\n";
  std::string edges;
  // Dashed provenance edges repeat across winners of one group (several
  // requirements can pick the same child); dedupe them.
  std::set<std::tuple<GroupId, GroupId, algebra::DescriptorId>> prov_edges;
  for (size_t i = 0; i < memo.allocated_groups(); ++i) {
    const GroupId gid = static_cast<GroupId>(i);
    if (memo.Find(gid) != gid) continue;  // merged away
    const Group& g = memo.group(gid);
    std::string label = common::StringPrintf("g%d", gid);
    size_t e = 0;  // The expression's field in the record label.
    for (const MExpr& m : g.exprs) {
      if (m.dead) continue;
      label += "|" + DotEscape(ExprText(memo, rules, m));
      for (GroupId c : m.children) {
        edges += common::StringPrintf("  g%d -> g%d [label=\"e%zu\"];\n", gid,
                                      memo.Find(c), e);
      }
      ++e;
    }
    for (const Winner* w : SortedWinners(g)) {
      if (w->has_plan) {
        label += "|" + DotEscape(common::StringPrintf(
                           "win d%d: %.6g via %s", w->rid, w->cost,
                           WinnerVia(rules, ProvOf(g, w->rid)).c_str()));
        if (const WinnerProv* p = ProvOf(g, w->rid)) {
          for (const auto& [cg, crid] : p->child_keys) {
            prov_edges.insert({gid, memo.Find(cg), crid});
          }
        }
      } else if (w->failed_limit >= 0) {
        label += "|" + DotEscape(common::StringPrintf(
                           "fail d%d: limit %.6g", w->rid, w->failed_limit));
      }
    }
    out += common::StringPrintf("  g%d [label=\"{%s}\"];\n", gid,
                                label.c_str());
  }
  out += edges;
  for (const auto& [from, to, rid] : prov_edges) {
    out += common::StringPrintf(
        "  g%d -> g%d [style=dashed, color=gray40, label=\"d%d\"];\n", from,
        to, rid);
  }
  out += "}\n";
  return out;
}

std::string MemoToJson(const Memo& memo, const RuleSet& rules) {
  const algebra::DescriptorStore* store = memo.store();
  std::string out;
  out += "{\n";
  out += common::StringPrintf("\"num_groups\": %zu,\n", memo.NumGroups());
  out += common::StringPrintf("\"num_exprs\": %zu,\n", memo.NumExprs());
  out += "\"groups\": [\n";
  const char* gsep = "";
  for (size_t i = 0; i < memo.allocated_groups(); ++i) {
    const GroupId gid = static_cast<GroupId>(i);
    if (memo.Find(gid) != gid) continue;  // merged away
    const Group& g = memo.group(gid);
    out += gsep;
    gsep = ",\n";
    out += common::StringPrintf(
        "{\"id\": %d, \"stream_desc\": %d, \"expanded\": %s,\n", gid,
        g.stream_desc, g.expanded ? "true" : "false");
    out += " \"exprs\": [";
    const char* esep = "";
    for (const MExpr& m : g.exprs) {
      if (m.dead) continue;
      out += esep;
      esep = ", ";
      if (m.is_file) {
        out += common::StringPrintf("{\"file\": \"%s\", \"args\": %d}",
                                    common::JsonEscape(m.file).c_str(),
                                    m.args);
        continue;
      }
      out += common::StringPrintf(
          "{\"op\": \"%s\", \"children\": [",
          common::JsonEscape(rules.algebra->name(m.op)).c_str());
      const char* csep = "";
      for (GroupId c : m.children) {
        out += common::StringPrintf("%s%d", csep, memo.Find(c));
        csep = ", ";
      }
      out += common::StringPrintf("], \"args\": %d, \"arg_key\": %d", m.args,
                                  m.arg_key);
      if (m.src_rule >= 0) {
        out += common::StringPrintf(
            ", \"src_rule\": \"%s\"",
            common::JsonEscape(
                RuleNameOr(rules.trans_rules, m.src_rule, "?"))
                .c_str());
      }
      out += "}";
    }
    out += "],\n \"winners\": [";
    const char* wsep = "";
    for (const Winner* w : SortedWinners(g)) {
      out += wsep;
      wsep = ", ";
      out += common::StringPrintf("{\"req\": %d", w->rid);
      if (w->rid >= 0) {
        out += common::StringPrintf(
            ", \"req_desc\": \"%s\"",
            common::JsonEscape(store->Get(w->rid).ToString()).c_str());
      }
      if (w->has_plan) {
        const WinnerProv* p = ProvOf(g, w->rid);
        out += common::StringPrintf(
            ", \"cost\": %.17g, \"via\": \"%s\"", w->cost,
            common::JsonEscape(WinnerVia(rules, p)).c_str());
        if (p != nullptr && !p->child_keys.empty()) {
          out += ", \"children\": [";
          const char* ksep = "";
          for (const auto& [cg, crid] : p->child_keys) {
            out += common::StringPrintf("%s[%d, %d]", ksep, memo.Find(cg),
                                        crid);
            ksep = ", ";
          }
          out += "]";
        }
      } else if (w->failed_limit >= 0) {
        out += common::StringPrintf(", \"failed_limit\": %.17g",
                                    w->failed_limit);
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

Status WriteMemoDump(const std::string& path, const Memo& memo,
                     const RuleSet& rules) {
  std::string body;
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".dot") == 0) {
    body = MemoToDot(memo, rules);
  } else if (path.size() >= 5 &&
             path.compare(path.size() - 5, 5, ".json") == 0) {
    body = MemoToJson(memo, rules);
  } else {
    return Status::InvalidArgument(
        "memo dump path must end in .dot or .json: '" + path + "'");
  }
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::ExecError("cannot open memo dump file '" + path + "'");
  }
  out << body;
  out.close();
  if (!out) {
    return Status::ExecError("error writing memo dump file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace prairie::volcano
