#include "algebra/value.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "algebra/predicate.h"
#include "common/strings.h"

namespace prairie::algebra {

using common::Result;
using common::Status;

namespace {

/// Process-wide string pool behind Value::Str. Keys view into the pooled
/// strings themselves (shared_ptr<const string> payloads never move), so
/// the pool costs one allocation per distinct string.
InternedString PoolString(std::string s) {
  static std::mutex mu;
  static std::unordered_map<std::string_view, InternedString> pool;
  std::lock_guard<std::mutex> lock(mu);
  auto it = pool.find(std::string_view(s));
  if (it != pool.end()) return it->second;
  auto sp = std::make_shared<const std::string>(std::move(s));
  pool.emplace(std::string_view(*sp), sp);
  return sp;
}

/// Process-wide pool behind Value::Attrs: one stored list per distinct
/// content, appended and never freed, so a pooled address identifies its
/// content for the life of the process. The pool also numbers attributes:
/// the first list to name an attribute gives it the next id.
class AttrsPool {
 public:
  /// The process's one pool. It is never destroyed: values and per-thread
  /// union memos may still hold pooled addresses while statics die, and a
  /// static pointer keeps every list reachable at exit.
  static AttrsPool& Get() {
    static AttrsPool* const pool = new AttrsPool;
    return *pool;
  }

  PooledAttrs Intern(AttrList list) {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = lists_.find(list); it != lists_.end()) return &*it;
    // First intern: number the list's attributes and build its set before
    // the insert publishes it.
    PooledAttrList entry;
    entry.ids.reserve(list.size());
    for (const Attr& a : list) {
      entry.ids.push_back(
          ids_.try_emplace(a, static_cast<AttrId>(ids_.size())).first->second);
    }
    entry.set = AttrSet(entry.ids);
    entry.attrs = std::move(list);
    return &*lists_.insert(std::move(entry)).first;
  }

  /// The pooled empty list, which a null operand of a union reads as.
  PooledAttrs Empty() const { return empty_; }

 private:
  AttrsPool() : empty_(Intern({})) {}

  struct AttrHash {
    size_t operator()(const Attr& a) const {
      return static_cast<size_t>(a.Hash());
    }
  };

  // Transparent, so a lookup by AttrList builds no entry.
  struct ListHash {
    using is_transparent = void;
    size_t operator()(const AttrList& l) const {
      uint64_t h = 0xa775;
      for (const Attr& a : l) h = common::HashCombine(h, a.Hash());
      return static_cast<size_t>(h);
    }
    size_t operator()(const PooledAttrList& l) const {
      return (*this)(l.attrs);
    }
  };
  struct ListEq {
    using is_transparent = void;
    static const AttrList& Of(const AttrList& l) { return l; }
    static const AttrList& Of(const PooledAttrList& l) { return l.attrs; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return Of(a) == Of(b);
    }
  };

  std::mutex mu_;
  std::unordered_map<Attr, AttrId, AttrHash> ids_;
  /// Node-based: an element's address survives every later insert.
  std::unordered_set<PooledAttrList, ListHash, ListEq> lists_;
  PooledAttrs empty_;
};

}  // namespace

AttrSet::AttrSet(std::span<const AttrId> ids) {
  for (const AttrId id : ids) {
    const uint32_t index = id >> 6;
    auto it = std::lower_bound(
        words_.begin(), words_.end(), index,
        [](const Word& w, uint32_t i) { return w.index < i; });
    if (it == words_.end() || it->index != index) {
      it = words_.insert(it, Word{index, 0});
    }
    it->bits |= uint64_t{1} << (id & 63);
  }
}

PooledAttrs InternAttrs(AttrList list) {
  return AttrsPool::Get().Intern(std::move(list));
}

PooledAttrs EmptyAttrs() { return AttrsPool::Get().Empty(); }

Value Value::Str(std::string s) {
  return Value(Repr(PoolString(std::move(s))));
}

Value Value::Attrs(AttrList a) { return FromPool(InternAttrs(std::move(a))); }

bool Contains(const AttrList& list, const Attr& attr) {
  return std::find(list.begin(), list.end(), attr) != list.end();
}

namespace {

bool StrictlySorted(const AttrList& list) {
  return std::adjacent_find(list.begin(), list.end(),
                            [](const Attr& x, const Attr& y) {
                              return !(x < y);
                            }) == list.end();
}

}  // namespace

AttrList UnionAttrs(const AttrList& a, const AttrList& b) {
  AttrList out;
  // Unions of unions are the common case, and their inputs are already
  // canonical: one merge pass yields exactly what the general path would.
  if (StrictlySorted(a) && StrictlySorted(b)) {
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
  }
  out = a;
  for (const Attr& attr : b) {
    if (!Contains(out, attr)) out.push_back(attr);
  }
  // Canonical (sorted) order: the same attribute set computed along
  // different rule-derivation paths must compare equal, or the memo would
  // fail to deduplicate logically identical expressions.
  std::sort(out.begin(), out.end());
  return out;
}

Value UnionAttrs(const Value& a, const Value& b) {
  const auto pooled = [](const Value& v) {
    return v.is_null() ? EmptyAttrs() : v.AsPooledAttrs();
  };
  const std::pair<PooledAttrs, PooledAttrs> key(pooled(a), pooled(b));
  struct PairHash {
    size_t operator()(const std::pair<PooledAttrs, PooledAttrs>& k) const {
      const uint64_t x = reinterpret_cast<uintptr_t>(k.first);
      const uint64_t y = reinterpret_cast<uintptr_t>(k.second);
      return static_cast<size_t>((x * 0x9e3779b97f4a7c15ULL) ^
                                 (y * 0xc2b2ae3d27d4eb4fULL) ^ (x >> 29));
    }
  };
  // Pooled lists never die, so a key never goes stale; the table belongs to
  // this thread, so neither a hit nor a miss races with other threads.
  thread_local std::unordered_map<std::pair<PooledAttrs, PooledAttrs>,
                                  PooledAttrs, PairHash>
      memo;
  auto it = memo.find(key);
  if (it == memo.end()) {
    PooledAttrs u =
        InternAttrs(UnionAttrs(key.first->attrs, key.second->attrs));
    it = memo.emplace(key, u).first;
  }
  return Value::FromPool(it->second);
}

bool SortSpec::Satisfies(const SortSpec& required) const {
  if (required.is_dont_care()) return true;
  if (required.keys.size() > keys.size()) return false;
  for (size_t i = 0; i < required.keys.size(); ++i) {
    if (!(keys[i] == required.keys[i])) return false;
  }
  return true;
}

uint64_t SortSpec::Hash() const {
  uint64_t h = 0x50a7;
  for (const Key& k : keys) {
    h = common::HashCombine(h, k.attr.Hash());
    h = common::HashMix(h, k.ascending);
  }
  return h;
}

std::string SortSpec::ToString() const {
  if (is_dont_care()) return "DONT_CARE";
  std::vector<std::string> parts;
  parts.reserve(keys.size());
  for (const Key& k : keys) {
    parts.push_back(k.attr.ToString() + (k.ascending ? " ASC" : " DESC"));
  }
  return "sorted(" + common::Join(parts, ", ") + ")";
}

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kReal:
      return "real";
    case ValueType::kString:
      return "string";
    case ValueType::kSort:
      return "sortspec";
    case ValueType::kAttrs:
      return "attrs";
    case ValueType::kPred:
      return "predicate";
  }
  return "unknown";
}

Result<double> Value::ToReal() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kReal:
      return AsReal();
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               std::string(ValueTypeName(type())) +
                               " to real");
  }
}

Result<bool> Value::ToBool() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return AsBool();
    case ValueType::kInt:
      return AsInt() != 0;
    case ValueType::kReal:
      return AsReal() != 0.0;
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               std::string(ValueTypeName(type())) +
                               " to bool");
  }
}

bool Value::operator==(const Value& o) const {
  if (type() != o.type()) return false;
  switch (type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return AsBool() == o.AsBool();
    case ValueType::kInt:
      return AsInt() == o.AsInt();
    case ValueType::kReal:
      return AsReal() == o.AsReal();
    case ValueType::kString:
      // Strings come from one process-wide pool (Value::Str), so equal
      // contents share one pointer. Must stay in lockstep with Hash(),
      // which also identifies strings by pointer.
      return std::get<InternedString>(repr_) ==
             std::get<InternedString>(o.repr_);
    case ValueType::kSort: {
      const SharedSort& a = std::get<SharedSort>(repr_);
      const SharedSort& b = std::get<SharedSort>(o.repr_);
      return a == b || *a == *b;
    }
    case ValueType::kAttrs:
      // Attribute lists are pooled too (Value::Attrs): equal lists share
      // one address, which Hash() also identifies them by.
      return std::get<PooledAttrs>(repr_) == std::get<PooledAttrs>(o.repr_);
    case ValueType::kPred: {
      return PredEquals(AsPred(), o.AsPred());
    }
  }
  return false;
}

uint64_t Value::Hash() const {
  uint64_t h = static_cast<uint64_t>(type()) * 0x9e3779b97f4a7c15ULL;
  switch (type()) {
    case ValueType::kNull:
      return h;
    case ValueType::kBool:
      return common::HashMix(h, AsBool());
    case ValueType::kInt:
      return common::HashMix(h, AsInt());
    case ValueType::kReal:
      return common::HashMix(h, AsReal());
    case ValueType::kString:
      // Strings are pooled (Value::Str), so equal values share one
      // representation and the pointer identifies the content.
      return common::HashMix(h, reinterpret_cast<uint64_t>(
                                    std::get<InternedString>(repr_).get()));
    case ValueType::kSort:
      return common::HashCombine(h, AsSort().Hash());
    case ValueType::kAttrs:
      return common::HashMix(
          h, reinterpret_cast<uint64_t>(std::get<PooledAttrs>(repr_)));
    case ValueType::kPred: {
      const PredicateRef& p = AsPred();
      return common::HashCombine(h, p == nullptr ? 0x7242 : p->Hash());
    }
  }
  return h;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kReal:
      return common::FormatDouble(AsReal());
    case ValueType::kString:
      return "\"" + AsString() + "\"";
    case ValueType::kSort:
      return AsSort().ToString();
    case ValueType::kAttrs: {
      std::vector<std::string> parts;
      for (const Attr& a : AsAttrs()) parts.push_back(a.ToString());
      return "[" + common::Join(parts, ", ") + "]";
    }
    case ValueType::kPred: {
      const PredicateRef& p = AsPred();
      return p == nullptr ? "TRUE" : p->ToString();
    }
  }
  return "?";
}

}  // namespace prairie::algebra
