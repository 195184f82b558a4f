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

ExprId Memo::FindDup(uint64_t key, const MExpr& m) const {
  auto [begin, end] = index_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (SameExpr(ExprAt(it->second), m)) return it->second;
  }
  return -1;
}

void Memo::Unindex(uint64_t key, ExprId id) {
  auto [begin, end] = index_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == id) {
      index_.erase(it);
      return;
    }
  }
}

Status Memo::CheckExprLimit() const {
  if (num_exprs_ < limits_.max_exprs) return Status::OK();
  return Status::ResourceExhausted(
      "memo expression limit reached (" + std::to_string(limits_.max_exprs) +
      " expressions); the search space exploded");
}

void Memo::AddExpr(GroupId g, MExpr m, uint64_t key) {
  Group& grp = groups_[static_cast<size_t>(g)];
  m.id = static_cast<ExprId>(slots_.size());
  m.dead = false;
  slots_.push_back(ExprSlot{g, static_cast<int>(grp.exprs.size())});
  index_.emplace(key, m.id);
  for (GroupId c : m.children) {
    groups_[static_cast<size_t>(Find(c))].parents.push_back(m.id);
  }
  grp.exprs.EmplaceBack(std::move(m));
  ++num_exprs_;
  ++tally_.exprs_inserted;
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
  ++tally_.groups_created;
  AddExpr(id, std::move(m), key);
  return id;
}

Result<GroupId> Memo::GetOrCreateGroup(MExpr m, algebra::DescriptorId desc) {
  EnsureKey(m);
  const uint64_t key = KeyOf(m);
  const ExprId dup = FindDup(key, m);
  if (dup >= 0) {
    ++tally_.exprs_deduped;
    return slots_[static_cast<size_t>(dup)].group;
  }
  return NewGroup(std::move(m), desc, key);
}

Result<bool> Memo::InsertInto(GroupId g, MExpr m) {
  g = Find(g);
  EnsureKey(m);
  const uint64_t key = KeyOf(m);
  const ExprId dup = FindDup(key, m);
  if (dup >= 0) {
    ++tally_.exprs_deduped;
    const GroupId dup_group = slots_[static_cast<size_t>(dup)].group;
    if (dup_group != g) {
      // The expression proves g and dup_group equivalent: merge.
      PRAIRIE_RETURN_NOT_OK(Merge(g, dup_group));
    }
    return false;
  }
  PRAIRIE_RETURN_NOT_OK(CheckExprLimit());
  AddExpr(g, std::move(m), key);
  return true;
}

Status Memo::Merge(GroupId keep, GroupId lose) {
  // Group pairs proven equal and not merged yet.
  std::vector<std::pair<GroupId, GroupId>> pending = {{keep, lose}};
  while (!pending.empty()) {
    keep = Find(pending.back().first);
    lose = Find(pending.back().second);
    pending.pop_back();
    if (keep == lose) continue;
    // Keep the smaller id as representative for stable statistics.
    if (lose < keep) std::swap(keep, lose);
    Group& kg = groups_[static_cast<size_t>(keep)];
    Group& lg = groups_[static_cast<size_t>(lose)];
    // The loser's parents are indexed under keys hashed on its id: take
    // them out before the union changes their keys.
    for (ExprId p : lg.parents) {
      if (slots_[static_cast<size_t>(p)].group >= 0) {
        Unindex(KeyOf(ExprAt(p)), p);
      }
    }
    parent_[static_cast<size_t>(lose)] = keep;
    ++tally_.groups_merged;
    // Move the loser's live expressions into the keeper. Their keys hash
    // only their children, so only those naming the loser change key.
    for (size_t i = 0; i < lg.exprs.size(); ++i) {
      MExpr& m = lg.exprs[i];
      if (m.dead) continue;
      slots_[static_cast<size_t>(m.id)] =
          ExprSlot{keep, static_cast<int>(kg.exprs.size())};
      kg.exprs.EmplaceBack(std::move(m));
    }
    lg.exprs.Clear();
    lg.merged_away = true;
    // Re-key the parents: each now names the keeper. One equal to a live
    // expression is dropped; if that expression is in another group, the
    // two groups are equal too.
    for (ExprId p : std::exchange(lg.parents, {})) {
      ExprSlot& slot = slots_[static_cast<size_t>(p)];
      if (slot.group < 0) continue;
      MExpr& m = ExprAt(p);
      const uint64_t key = KeyOf(m);
      const ExprId dup = FindDup(key, m);
      if (dup == p) continue;  // Listed twice; already re-keyed.
      if (dup < 0) {
        index_.emplace(key, p);
        kg.parents.push_back(p);
        continue;
      }
      const GroupId dup_group = slots_[static_cast<size_t>(dup)].group;
      if (dup_group != slot.group) pending.emplace_back(slot.group, dup_group);
      m.dead = true;
      slot.group = -1;
      --num_exprs_;
      ++tally_.exprs_deduped;
    }
    // Winners may no longer be best (new expressions arrived): recompute.
    kg.winners.clear();
    kg.prov.clear();
    lg.winners.clear();
    lg.prov.clear();
    kg.expanded = false;
    ++merge_epoch_;
  }
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
      if (m.dead) continue;
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
