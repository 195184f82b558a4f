// Value: the tagged union stored in descriptor annotations.
//
// The Prairie model (paper §2.1) annotates every operator-tree node with a
// descriptor, a list of <property, value> pairs. Properties range over
// booleans, integers, reals (incl. costs), strings, sort specifications
// (tuple orders), attribute lists and predicates; Value covers all of these.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/result.h"

namespace prairie::algebra {

class Predicate;
using PredicateRef = std::shared_ptr<const Predicate>;

/// \brief A qualified attribute reference, e.g. "C1.a3".
struct Attr {
  std::string cls;   ///< Class / relation (or range-variable) name.
  std::string name;  ///< Attribute name within the class.

  std::string ToString() const { return cls + "." + name; }
  bool operator==(const Attr& o) const {
    return cls == o.cls && name == o.name;
  }
  bool operator<(const Attr& o) const {
    return cls != o.cls ? cls < o.cls : name < o.name;
  }
  uint64_t Hash() const {
    return common::HashMix(common::HashMix(0, cls), name);
  }
};

using AttrList = std::vector<Attr>;

/// Dense id of an attribute. The attribute pool (Value::Attrs) numbers each
/// distinct attribute the first time it appears in an interned list; ids
/// are process-wide and never reused.
using AttrId = uint32_t;

/// \brief A set of attribute ids, kept as its non-zero 64-bit words in word
/// order.
///
/// Storing only the words that hold a member keeps a set as long as the
/// list it was built from, however large the ids the process has handed
/// out. Subset, overlap and membership tests are word operations.
class AttrSet {
 public:
  AttrSet() = default;
  explicit AttrSet(std::span<const AttrId> ids);

  bool Contains(AttrId id) const {
    const uint32_t index = id >> 6;
    for (const Word& w : words_) {
      if (w.index >= index) {
        return w.index == index && ((w.bits >> (id & 63)) & 1) != 0;
      }
    }
    return false;
  }

  /// True if every member of this set is a member of `o`.
  bool SubsetOf(const AttrSet& o) const {
    auto it = o.words_.begin();
    for (const Word& w : words_) {
      while (it != o.words_.end() && it->index < w.index) ++it;
      if (it == o.words_.end() || it->index != w.index ||
          (w.bits & ~it->bits) != 0) {
        return false;
      }
    }
    return true;
  }

  /// True if this set and `o` share a member.
  bool Overlaps(const AttrSet& o) const {
    auto a = words_.begin();
    auto b = o.words_.begin();
    while (a != words_.end() && b != o.words_.end()) {
      if (a->index < b->index) {
        ++a;
      } else if (b->index < a->index) {
        ++b;
      } else {
        if ((a->bits & b->bits) != 0) return true;
        ++a;
        ++b;
      }
    }
    return false;
  }

  /// The number of stored words: at most the number of ids it was built
  /// from.
  size_t word_count() const { return words_.size(); }

 private:
  struct Word {
    uint32_t index;  ///< Holds ids 64 * index .. 64 * index + 63.
    uint64_t bits;
  };
  std::vector<Word> words_;  ///< Non-zero words, by ascending index.
};

/// \brief An attribute list as the process-wide pool holds it: the list,
/// each attribute's id and the set of those ids.
///
/// All three are built at the list's first intern, before any thread can
/// see it, and never change, so reading them takes no lock.
struct PooledAttrList {
  AttrList attrs;            ///< The list, in the order it was interned.
  std::vector<AttrId> ids;   ///< ids[i] is the id of attrs[i].
  AttrSet set;               ///< The ids as a set.
};

/// Interned attribute-list payload. Value::Attrs pools lists process-wide
/// in an append-only pool whose lists live until the process exits, so
/// equal lists share one address: a copy is a pointer copy, and equality
/// and hashing compare the pointer.
using PooledAttrs = const PooledAttrList*;

/// The pooled list with `list`'s contents, interned on first use.
PooledAttrs InternAttrs(AttrList list);

/// The pooled empty list, which a null attribute Value reads as.
PooledAttrs EmptyAttrs();

/// True if `list` contains `attr`.
bool Contains(const AttrList& list, const Attr& attr);

/// Set-union of two attribute lists in sorted (canonical) order. `b`
/// contributes each attribute `a` lacks once; a repeat inside `a` is kept.
/// Two strictly sorted inputs merge in one pass; others are copied and
/// sorted, with the same result.
AttrList UnionAttrs(const AttrList& a, const AttrList& b);

class Value;

/// The same union over the pooled lists two Values hold (each null or an
/// attribute list; null reads as the empty list), returned as a pooled
/// Value. Memoized per ordered pair of pooled lists in a table owned by the
/// calling thread, so a repeated union takes no lock and copies nothing.
Value UnionAttrs(const Value& a, const Value& b);

/// \brief A tuple-order specification (the paper's `tuple_order` property).
///
/// DONT_CARE means no particular order is required or produced. A sorted
/// spec lists sort keys major-to-minor, each ascending or descending.
struct SortSpec {
  struct Key {
    Attr attr;
    bool ascending = true;
    bool operator==(const Key& o) const {
      return attr == o.attr && ascending == o.ascending;
    }
  };

  std::vector<Key> keys;  ///< Empty means DONT_CARE.

  static SortSpec DontCare() { return SortSpec{}; }
  static SortSpec On(Attr attr, bool ascending = true) {
    SortSpec s;
    s.keys.push_back(Key{std::move(attr), ascending});
    return s;
  }

  bool is_dont_care() const { return keys.empty(); }

  /// True if a stream ordered by `this` also satisfies `required`:
  /// `required.keys` must be a prefix of `this->keys` (or DONT_CARE).
  bool Satisfies(const SortSpec& required) const;

  bool operator==(const SortSpec& o) const { return keys == o.keys; }
  uint64_t Hash() const;
  std::string ToString() const;
};

/// Runtime type of a Value.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt,
  kReal,
  kString,
  kSort,
  kAttrs,
  kPred,
};

std::string_view ValueTypeName(ValueType t);

/// Interned (hash-consed) string payload. Value::Str pools string contents
/// process-wide, so equal strings share one allocation and string equality
/// inside descriptors is usually a pointer compare.
using InternedString = std::shared_ptr<const std::string>;

/// Sort specs are immutable once wrapped in a Value, so copies (descriptor
/// copies are the engine's hottest operation) share the payload instead of
/// deep-copying vectors of attribute strings.
using SharedSort = std::shared_ptr<const SortSpec>;

/// \brief A dynamically typed value held by a descriptor annotation.
class Value {
 public:
  Value() = default;  ///< Null value.

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Repr(b)); }
  static Value Int(int64_t i) { return Value(Repr(i)); }
  static Value Real(double d) { return Value(Repr(d)); }
  static Value Str(std::string s);  ///< Interns `s` in the global pool.
  static Value Sort(SortSpec s) {
    return Value(Repr(std::make_shared<const SortSpec>(std::move(s))));
  }
  static Value Attrs(AttrList a);  ///< Interns `a` in the global pool.
  static Value FromPool(PooledAttrs a) { return Value(Repr(a)); }
  static Value Pred(PredicateRef p) { return Value(Repr(std::move(p))); }

  ValueType type() const { return static_cast<ValueType>(repr_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }

  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsReal() const { return std::get<double>(repr_); }
  const std::string& AsString() const {
    return *std::get<InternedString>(repr_);
  }
  const SortSpec& AsSort() const { return *std::get<SharedSort>(repr_); }
  const AttrList& AsAttrs() const { return AsPooledAttrs()->attrs; }
  PooledAttrs AsPooledAttrs() const { return std::get<PooledAttrs>(repr_); }
  const PredicateRef& AsPred() const { return std::get<PredicateRef>(repr_); }

  /// Numeric coercion: Int and Real convert to double; anything else fails.
  common::Result<double> ToReal() const;

  /// Truthiness: Bool as-is; Null is false; numerics non-zero. Anything
  /// else is a type error.
  common::Result<bool> ToBool() const;

  bool operator==(const Value& o) const;
  bool operator!=(const Value& o) const { return !(*this == o); }

  uint64_t Hash() const;
  std::string ToString() const;

 private:
  // The alternative order must track ValueType (type() is repr_.index());
  // indexes 4 (kString) and 6 (kAttrs) hold pooled pointers.
  using Repr = std::variant<std::monostate, bool, int64_t, double,
                            InternedString, SharedSort, PooledAttrs,
                            PredicateRef>;
  explicit Value(Repr r) : repr_(std::move(r)) {}
  Repr repr_;
};

}  // namespace prairie::algebra
