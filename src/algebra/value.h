// Value: the tagged union stored in descriptor annotations.
//
// The Prairie model (paper §2.1) annotates every operator-tree node with a
// descriptor, a list of <property, value> pairs. Properties range over
// booleans, integers, reals (incl. costs), strings, sort specifications
// (tuple orders), attribute lists and predicates; Value covers all of these.

#pragma once

#include <cstdint>
#include <memory>
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

/// True if every attribute of `subset` occurs in `superset`.
bool IsSubset(const AttrList& subset, const AttrList& superset);

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

/// Interned attribute-list payload. Value::Attrs pools lists process-wide
/// in an append-only pool whose lists live until the process exits, so
/// equal lists share one address: a copy is a pointer copy, and equality
/// and hashing compare the pointer.
using PooledAttrs = const AttrList*;

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
  const AttrList& AsAttrs() const { return *std::get<PooledAttrs>(repr_); }
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
  friend Value UnionAttrs(const Value& a, const Value& b);

  // The alternative order must track ValueType (type() is repr_.index());
  // indexes 4 (kString) and 6 (kAttrs) hold pooled pointers.
  using Repr = std::variant<std::monostate, bool, int64_t, double,
                            InternedString, SharedSort, PooledAttrs,
                            PredicateRef>;
  explicit Value(Repr r) : repr_(std::move(r)) {}
  Repr repr_;
};

}  // namespace prairie::algebra
