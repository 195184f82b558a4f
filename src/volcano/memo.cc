#include "volcano/memo.h"

#include <cassert>

#include "common/hash.h"
#include "common/strings.h"

namespace prairie::volcano {

using common::Result;
using common::Status;

Memo::Memo(const RuleSet* rules, MemoLimits limits,
           algebra::DescriptorStore* shared_store)
    : rules_(rules),
      limits_(limits),
      owned_store_(shared_store != nullptr
                       ? nullptr
                       : std::make_unique<algebra::DescriptorStore>(
                             &rules->algebra->properties())),
      store_(shared_store != nullptr ? shared_store : owned_store_.get()),
      arg_slice_id_(store_->RegisterSlice(rules->ArgSlice())),
      groups_(&arena_),
      parent_(&arena_) {
  assert(store_->schema() == &rules->algebra->properties() &&
         "shared store must use the rule set's property schema");
}

GroupId Memo::Find(GroupId g) const {
  GroupId root = g;
  while (parent_[static_cast<size_t>(root)] != root) {
    root = parent_[static_cast<size_t>(root)];
  }
  // Path compression.
  while (g != root) {
    GroupId& link = parent_[static_cast<size_t>(g)];
    g = link;
    link = root;
  }
  return root;
}

void Memo::EnsureKey(MExpr& m) {
  if (m.arg_key == algebra::kInvalidDescriptorId) {
    m.arg_key = store_->Project(arg_slice_id_, m.args);
  }
}

uint64_t Memo::KeyOf(const MExpr& m) const {
  uint64_t h = m.is_file ? common::HashMix(0x417e, m.file)
                         : common::HashMix(0x09a1, m.op);
  h = common::HashCombine(h, store_->HashOf(m.arg_key));
  for (GroupId c : m.children) {
    h = common::HashMix(h, static_cast<int64_t>(Find(c)));
  }
  return h;
}

bool Memo::SameExpr(const MExpr& a, const MExpr& b) const {
  if (a.is_file != b.is_file || a.op != b.op || a.file != b.file ||
      a.children.size() != b.children.size()) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (Find(a.children[i]) != Find(b.children[i])) return false;
  }
  // Interned identity: one integer compare instead of a deep slice walk.
  return a.arg_key == b.arg_key;
}

GroupId Memo::FindDup(uint64_t key, const MExpr& m) const {
  auto [begin, end] = index_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    const GroupId g = Find(it->second.first);
    const Group& grp = groups_[static_cast<size_t>(g)];
    const int idx = it->second.second;
    if (idx < static_cast<int>(grp.exprs.size()) &&
        SameExpr(grp.exprs[static_cast<size_t>(idx)], m)) {
      return g;
    }
  }
  return -1;
}

Status Memo::CheckExprLimit() const {
  if (num_exprs_ < limits_.max_exprs) return Status::OK();
  return Status::ResourceExhausted(
      "memo expression limit reached (" + std::to_string(limits_.max_exprs) +
      " expressions); the search space exploded");
}

Result<GroupId> Memo::NewGroup(MExpr m, algebra::DescriptorId desc,
                               uint64_t key) {
  if (groups_.size() >= limits_.max_groups) {
    return Status::ResourceExhausted(
        "memo group limit reached (" + std::to_string(limits_.max_groups) +
        " groups); the search space exploded");
  }
  PRAIRIE_RETURN_NOT_OK(CheckExprLimit());
  const GroupId id = static_cast<GroupId>(groups_.size());
  Group& g = groups_.EmplaceBack(&arena_);
  parent_.EmplaceBack(id);
  g.stream_desc = desc;
  g.exprs.EmplaceBack(std::move(m));
  ++num_exprs_;
  ++tally_.groups_created;
  ++tally_.exprs_inserted;
  index_.emplace(key, std::make_pair(id, 0));
  return id;
}

Result<GroupId> Memo::GetOrCreateGroup(MExpr m, algebra::DescriptorId desc) {
  EnsureKey(m);
  const uint64_t key = KeyOf(m);
  const GroupId dup = FindDup(key, m);
  if (dup >= 0) {
    ++tally_.exprs_deduped;
    return dup;
  }
  return NewGroup(std::move(m), desc, key);
}

Result<bool> Memo::AppendExpr(GroupId g, MExpr m, uint64_t key) {
  PRAIRIE_RETURN_NOT_OK(CheckExprLimit());
  Group& grp = groups_[static_cast<size_t>(g)];
  const int idx = static_cast<int>(grp.exprs.size());
  grp.exprs.EmplaceBack(std::move(m));
  ++num_exprs_;
  ++tally_.exprs_inserted;
  index_.emplace(key, std::make_pair(g, idx));
  return true;
}

Result<bool> Memo::InsertInto(GroupId g, MExpr m) {
  g = Find(g);
  EnsureKey(m);
  const uint64_t key = KeyOf(m);
  const GroupId dup = FindDup(key, m);
  if (dup >= 0) {
    ++tally_.exprs_deduped;
    if (dup != g) {
      // The expression proves g and dup equivalent: merge.
      PRAIRIE_RETURN_NOT_OK(Merge(g, dup));
    }
    return false;
  }
  return AppendExpr(g, std::move(m), key);
}

Status Memo::Merge(GroupId keep, GroupId lose) {
  keep = Find(keep);
  lose = Find(lose);
  if (keep == lose) return Status::OK();
  // Keep the smaller id as representative for stable statistics.
  if (lose < keep) std::swap(keep, lose);
  Group& kg = groups_[static_cast<size_t>(keep)];
  Group& lg = groups_[static_cast<size_t>(lose)];
  parent_[static_cast<size_t>(lose)] = keep;
  ++tally_.groups_merged;
  // Move the loser's expressions into the keeper, re-deduplicating.
  const size_t n = lg.exprs.size();
  for (size_t i = 0; i < n; ++i) {
    MExpr& m = lg.exprs[i];
    const uint64_t key = KeyOf(m);
    if (FindDup(key, m) == keep) {
      --num_exprs_;
      ++tally_.exprs_deduped;
      continue;
    }
    const int idx = static_cast<int>(kg.exprs.size());
    kg.exprs.EmplaceBack(std::move(m));
    index_.emplace(key, std::make_pair(keep, idx));
  }
  lg.exprs.Clear();
  lg.merged_away = true;
  // Winners may no longer be best (new expressions arrived): recompute.
  kg.winners.clear();
  kg.prov.clear();
  lg.winners.clear();
  lg.prov.clear();
  kg.expanded = false;
  ++merge_epoch_;
  return Status::OK();
}

std::optional<Winner> Memo::FindWinner(GroupId g,
                                       algebra::DescriptorId rid) const {
  const Group& grp = group(g);
  auto it = grp.winners.find(rid);
  if (it == grp.winners.end()) return std::nullopt;
  return it->second;
}

Winner Memo::StoreWinner(GroupId g, algebra::DescriptorId rid, Winner w,
                         WinnerProv prov) {
  Group& grp = group(g);
  w.rid = rid;
  Winner& slot = grp.winners[rid];
  slot = std::move(w);
  if (slot.has_plan) {
    grp.prov[rid] = std::move(prov);
  } else {
    grp.prov.erase(rid);
  }
  return slot;
}

Result<GroupId> Memo::CopyIn(const algebra::Expr& tree) {
  MExpr m;
  if (tree.is_file()) {
    m.is_file = true;
    m.file = tree.file_name();
    const algebra::DescriptorId d = store_->Intern(tree.descriptor());
    m.args = d;
    return GetOrCreateGroup(std::move(m), d);
  }
  if (rules_->algebra->is_algorithm(tree.op())) {
    return Status::InvalidArgument(
        "input operator trees must be logical; found algorithm '" +
        rules_->algebra->name(tree.op()) + "'");
  }
  m.op = tree.op();
  const algebra::DescriptorId d = store_->Intern(tree.descriptor());
  m.args = d;
  m.children.reserve(tree.num_children());
  for (const algebra::ExprPtr& c : tree.children()) {
    PRAIRIE_ASSIGN_OR_RETURN(GroupId cg, CopyIn(*c));
    m.children.push_back(cg);
  }
  return GetOrCreateGroup(std::move(m), d);
}

size_t Memo::NumGroups() const {
  size_t n = 0;
  const size_t total = groups_.size();
  for (size_t i = 0; i < total; ++i) {
    if (!groups_[i].merged_away) ++n;
  }
  return n;
}

MemoTallies Memo::tallies() const {
  MemoTallies t = tally_;
  t.arena_bytes = arena_.bytes_reserved();
  return t;
}

std::string Memo::ToString(const algebra::Algebra& algebra) const {
  std::string out;
  for (size_t i = 0; i < groups_.size(); ++i) {
    const Group& g = groups_[i];
    if (g.merged_away) continue;
    out += common::StringPrintf("group %d:\n", static_cast<int>(i));
    for (const MExpr& m : g.exprs) {
      out += "  ";
      if (m.is_file) {
        out += m.file;
      } else {
        out += algebra.name(m.op) + "(";
        std::vector<std::string> parts;
        for (GroupId c : m.children) {
          parts.push_back("g" + std::to_string(Find(c)));
        }
        out += common::Join(parts, ", ") + ")";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace prairie::volcano
