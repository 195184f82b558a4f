// The memo: equivalence classes of logical multi-expressions (the paper's
// Figure 14 counts these classes).
//
// Groups are identified by GroupId with union-find indirection: when a
// transformation produces, as the root of some group g, an expression that
// already exists in another group h, the two groups are provably
// equivalent and are merged. Expression identity is (operation or file,
// argument-property slice of the descriptor, canonical child groups);
// physical and cost properties are excluded, as in Volcano.
//
// Invariant — the memo is canonical: no two live expressions are equal
// under that identity, and each is indexed under the key of its canonical
// children. An insert keeps it by deduplicating, and by merging when the
// duplicate lives in another group. A merge keeps it by re-keying exactly
// the expressions that name the merged-away group as a child (each group
// lists them in `parents`). A parent that now equals an expression of its
// own group is dropped. A parent that equals an expression of another
// group is dropped too, and the two groups merge in turn (a cascade, run
// from a worklist inside Merge). A dropped expression stays in its
// group's list, marked `dead`, so walks of a group by index stay valid;
// every walk skips it. The surviving copy keeps its own `applied` bits.
//
// Descriptors are hash-consed: the memo owns a DescriptorStore and every
// expression/stream/requirement descriptor is a dense DescriptorId with
// id-equality <=> value-equality. Expression identity compares the interned
// argument-slice id (one integer), and winner tables key on the interned
// requirement id directly — no stored-descriptor collision guard.
//
// Storage model: groups and each group's expression list live in
// arena-backed StableVectors — append-only chunk ladders whose elements
// never move, so the engine can hold references into a group while rule
// firings insert new expressions and groups. The arena also keeps the
// allocation profile flat: the 1995 paper's virtual-memory wall at 8-way
// joins was allocator churn as much as search-space size.
//
// A memo belongs to one optimizer and is single-threaded. Parallelism runs
// across queries (BatchOptimizer): many memos, one concurrent
// DescriptorStore.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/descriptor_store.h"
#include "algebra/expr.h"
#include "common/arena.h"
#include "common/small_bitset.h"
#include "volcano/plan.h"
#include "volcano/rules.h"

namespace prairie::volcano {

/// Memo-wide handle of an expression (MExpr::id).
using ExprId = int;

/// \brief A logical multi-expression stored in a group.
struct MExpr {
  bool is_file = false;
  /// Dropped by a merge that made it equal to another live expression
  /// (see the invariant above); skipped by every walk.
  bool dead = false;
  algebra::OpId op = -1;
  std::string file;
  /// Full descriptor of this node (interned).
  algebra::DescriptorId args = algebra::kInvalidDescriptorId;
  /// Interned argument-slice projection of `args`: the identity carrier.
  /// Filled lazily by the memo on insert; equal ids <=> equal arg slices.
  algebra::DescriptorId arg_key = algebra::kInvalidDescriptorId;
  std::vector<GroupId> children;   ///< Child groups (canonicalized on use).
  /// TransRules already applied here. The engine sets a bit after the
  /// application finishes, so a pass restarted by a merge skips the rules
  /// it already applied.
  common::SmallBitset applied;
  /// Provenance (observability): the trans rule that created this
  /// expression (-1: copied in from the input query), and the memo
  /// identity key (arg_key) of the source expression the rewrite matched
  /// (invalid for RHS subtree expressions, which have no single source).
  /// The source lives in the same group; resolve by scanning for its
  /// arg_key — indexes go stale under merges, interned keys do not.
  int src_rule = -1;
  algebra::DescriptorId src_arg_key = algebra::kInvalidDescriptorId;
  /// Assigned by the memo on insert. Parent lists and the duplicate index
  /// name expressions by it, so moving one in a merge updates one entry.
  ExprId id = -1;
};

/// \brief Memoized result of optimizing a group under one requirement.
///
/// Keyed by the interned requirement id, so no collision guard is stored.
struct Winner {
  bool has_plan = false;
  double cost = 0;
  PhysNodeRef plan;
  /// When >= 0: the search failed under this cost limit; a retry is only
  /// worthwhile with a larger limit.
  double failed_limit = -1;
  /// The interned requirement id this winner is memoized under (its own
  /// key in Group::winners) — lets callers chain provenance without
  /// re-interning the requirement.
  algebra::DescriptorId rid = algebra::kInvalidDescriptorId;
};

/// \brief Provenance of a memoized winner (observability): why the chosen
/// plan exists. Stored beside Group::winners under the same key so the
/// hot search path never copies it (Winner values travel by value; this
/// does not).
struct WinnerProv {
  int impl_rule = -1;  ///< Index into RuleSet::impl_rules, or -1.
  int enforcer = -1;   ///< Index into RuleSet::enforcers, or -1.
  /// arg_key (memo identity) of the implemented logical expression;
  /// invalid for stored-file winners.
  algebra::DescriptorId src_arg_key = algebra::kInvalidDescriptorId;
  /// Child groups of the implemented expression: arg_key alone is
  /// ambiguous when two expressions differ only in child order (e.g. a
  /// commuted join whose rewrite reuses the argument slice).
  std::vector<GroupId> src_children;
  /// (child group, interned requirement id) of each optimized input — the
  /// winner-table keys to continue the provenance walk downward.
  std::vector<std::pair<GroupId, algebra::DescriptorId>> child_keys;
};

/// \brief One equivalence class. Groups are neither copyable nor movable —
/// they are constructed in place in the memo's stable group table and
/// never relocate.
struct Group {
  explicit Group(common::Arena* arena) : exprs(arena) {}
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  common::StableVector<MExpr> exprs;
  /// Logical annotations of the stream this class produces (used to bind
  /// rule input descriptors D1..Dk). Interned.
  algebra::DescriptorId stream_desc = algebra::kInvalidDescriptorId;
  bool expanded = false;
  /// On the engine's expansion stack: a cyclic rule path re-entering the
  /// group matches over what is already there.
  bool expanding = false;
  bool merged_away = false;
  /// Expressions naming this group as a child, kept by the memo. May list
  /// one twice or name dropped ones; merges skip both.
  std::vector<ExprId> parents;
  /// Key: interned id of the physical-slice requirement descriptor.
  std::unordered_map<algebra::DescriptorId, Winner> winners;
  /// Winner provenance, same key as `winners`; entries exist only for
  /// winners that carry a plan. Cleared together with `winners` on merge.
  std::unordered_map<algebra::DescriptorId, WinnerProv> prov;
};

/// \brief Limits protecting against search-space explosion (the paper hit
/// virtual-memory exhaustion at 8-way joins in 1994; we fail cleanly).
/// Hitting one is an error (ResourceExhausted) — for graceful degradation
/// use the engine's anytime budgets (OptimizerOptions::search_budget_ms /
/// group_budget) instead.
struct MemoLimits {
  size_t max_groups = 2'000'000;
  size_t max_exprs = 8'000'000;
};

/// \brief Structural tallies of one memo (observability), snapshotted by
/// Memo::tallies(). The engine flushes deltas into the process-wide
/// metrics registry at the end of each query.
struct MemoTallies {
  uint64_t groups_created = 0;   ///< NewGroup calls.
  uint64_t groups_merged = 0;    ///< Equivalence merges performed.
  uint64_t exprs_inserted = 0;   ///< Multi-expressions actually added.
  uint64_t exprs_deduped = 0;    ///< Inserts resolved to an existing expr.
  uint64_t arena_bytes = 0;      ///< Arena bytes backing groups + exprs.
};

/// \brief The memo structure. Single-threaded; for parallel BATCH
/// optimization (across queries), several memos may share one concurrent
/// DescriptorStore so descriptor ids stay globally canonical.
class Memo {
 public:
  /// `shared_store` null: the memo owns a private serial store. Non-null:
  /// the memo interns through `shared_store` (which must outlive it, use
  /// the rule set's schema and, when other threads share it, be in
  /// StoreMode::kConcurrent).
  Memo(const RuleSet* rules, MemoLimits limits,
       algebra::DescriptorStore* shared_store = nullptr);

  /// The descriptor store backing every id in this memo. The engine and
  /// rule callbacks intern through this store so ids are comparable.
  algebra::DescriptorStore* store() { return store_; }
  const algebra::DescriptorStore* store() const { return store_; }

  /// Canonical (union-find) representative of `g`, compressing the path.
  GroupId Find(GroupId g) const;

  /// The canonical group of `g`. References stay valid forever (stable
  /// storage); merges may change the REPRESENTATIVE, so loops that insert
  /// re-Find.
  Group& group(GroupId g) { return groups_[static_cast<size_t>(Find(g))]; }
  const Group& group(GroupId g) const {
    return groups_[static_cast<size_t>(Find(g))];
  }

  /// Copies a logical operator tree into the memo; returns the root group.
  /// Interior nodes must be abstract operators of the rule set's algebra.
  common::Result<GroupId> CopyIn(const algebra::Expr& tree);

  /// Finds the group already containing an expression identical to `m`, or
  /// creates a new group for it. `desc` (interned) seeds a new group's
  /// stream descriptor.
  common::Result<GroupId> GetOrCreateGroup(MExpr m, algebra::DescriptorId desc);

  /// Inserts `m` as a new expression of group `g`. If an identical
  /// expression lives in another group, the groups are merged. Returns
  /// true if a new expression was actually added somewhere.
  common::Result<bool> InsertInto(GroupId g, MExpr m);

  /// The memoized winner of (group, interned requirement), if any.
  std::optional<Winner> FindWinner(GroupId g, algebra::DescriptorId rid) const;

  /// Memoizes `w` (and its provenance, when it has a plan) for
  /// (group, rid), replacing any earlier entry. Returns the stored winner.
  Winner StoreWinner(GroupId g, algebra::DescriptorId rid, Winner w,
                     WinnerProv prov);

  /// Number of live (representative) groups — the paper's "equivalence
  /// classes".
  size_t NumGroups() const;

  /// Live logical multi-expressions across live groups.
  size_t NumExprs() const { return num_exprs_; }

  /// Bumps on every merge; long-running loops over a group's expressions
  /// restart when they observe a change.
  uint64_t merge_epoch() const { return merge_epoch_; }

  size_t allocated_groups() const { return groups_.size(); }

  /// Snapshot of the structural tallies since construction (groups
  /// created/merged, exprs inserted/deduped, arena bytes).
  MemoTallies tallies() const;

  /// Bytes of arena-backed storage (group table + expression lists).
  size_t arena_bytes() const { return arena_.bytes_reserved(); }

  std::string ToString(const algebra::Algebra& algebra) const;

 private:
  /// Where a live expression sits: its group's list and its index there.
  /// A dropped expression's group is -1.
  struct ExprSlot {
    GroupId group;
    int index;
  };

  const MExpr& ExprAt(ExprId id) const {
    const ExprSlot& s = slots_[static_cast<size_t>(id)];
    return groups_[static_cast<size_t>(s.group)]
        .exprs[static_cast<size_t>(s.index)];
  }
  MExpr& ExprAt(ExprId id) {
    const ExprSlot& s = slots_[static_cast<size_t>(id)];
    return groups_[static_cast<size_t>(s.group)]
        .exprs[static_cast<size_t>(s.index)];
  }
  /// Fills m.arg_key (the interned identity projection) if unset.
  void EnsureKey(MExpr& m);
  uint64_t KeyOf(const MExpr& m) const;
  bool SameExpr(const MExpr& a, const MExpr& b) const;
  /// The live expression identical to `m`, or -1.
  ExprId FindDup(uint64_t key, const MExpr& m) const;
  /// Removes the index entry of `id` under `key`, if there is one.
  void Unindex(uint64_t key, ExprId id);
  /// ResourceExhausted once the memo holds MemoLimits::max_exprs.
  common::Status CheckExprLimit() const;
  /// Merges the two groups, then every pair of groups the merge proves
  /// equal, re-keying the merged-away groups' parents (see the invariant).
  common::Status Merge(GroupId keep, GroupId lose);
  common::Result<GroupId> NewGroup(MExpr m, algebra::DescriptorId desc,
                                   uint64_t key);
  /// Appends `m` to canonical group `g`, gives it an id, indexes it under
  /// `key` and lists it as a parent of each of its child groups.
  void AddExpr(GroupId g, MExpr m, uint64_t key);

  const RuleSet* rules_;
  MemoLimits limits_;
  /// Set when the memo owns its store (no shared store was supplied).
  std::unique_ptr<algebra::DescriptorStore> owned_store_;
  algebra::DescriptorStore* store_;
  algebra::SliceId arg_slice_id_;

  /// Arena backing the group table, every group's expression list and the
  /// union-find parent array. Never shrinks; dies with the memo.
  common::Arena arena_;
  common::StableVector<Group> groups_;
  /// Union-find parent links (mutable: Find compresses paths).
  mutable common::StableVector<GroupId> parent_;
  /// ExprId -> where that expression lives. A plain vector, not a
  /// StableVector: a memo is built per request, plan-cache hits included,
  /// and a StableVector's 320-byte chunk table would push the Memo object
  /// past the largest size glibc's per-thread cache serves (1,032 bytes).
  std::vector<ExprSlot> slots_;
  /// Expression key -> each live expression with that key.
  std::unordered_multimap<uint64_t, ExprId> index_;

  size_t num_exprs_ = 0;
  uint64_t merge_epoch_ = 0;
  MemoTallies tally_;  ///< arena_bytes is filled in by tallies().
};

}  // namespace prairie::volcano
