// Property schemas and descriptors (paper §2.1).
//
// A *property* is a user-defined variable; an *annotation* is a
// <property, value> pair; a *descriptor* is the list of annotations
// attached to an operator-tree node. Prairie deliberately keeps all
// properties in one flat, uniform structure — the P2V pre-processor later
// classifies them into Volcano's cost / physical / argument categories.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/value.h"
#include "common/result.h"

namespace prairie::algebra {

using PropertyId = int;

/// \brief Declaration of one descriptor property.
struct PropertyDecl {
  std::string name;
  ValueType type = ValueType::kNull;
  /// Declared with the special `cost` DSL type; P2V classifies such
  /// properties as Volcano cost properties.
  bool is_cost = false;

  std::string ToString() const;
};

/// \brief The ordered set of properties every descriptor carries.
class PropertySchema {
 public:
  /// Adds a property; fails on duplicate names.
  common::Status Add(PropertyDecl decl);

  /// Convenience for Add({name, type, is_cost}).
  common::Status Add(std::string name, ValueType type, bool is_cost = false);

  std::optional<PropertyId> Find(const std::string& name) const;
  common::Result<PropertyId> Require(const std::string& name) const;

  const PropertyDecl& decl(PropertyId id) const { return decls_[id]; }
  int size() const { return static_cast<int>(decls_.size()); }
  const std::vector<PropertyDecl>& decls() const { return decls_; }

  std::string ToString() const;

 private:
  std::vector<PropertyDecl> decls_;
  std::unordered_map<std::string, PropertyId> by_name_;
};

/// \brief A node descriptor: one Value per schema property (Null when unset).
///
/// Descriptors compare and hash by value so the Volcano memo can detect
/// duplicate expressions.
class Descriptor {
 public:
  Descriptor() = default;
  explicit Descriptor(const PropertySchema* schema)
      : schema_(schema),
        values_(schema == nullptr ? 0 : static_cast<size_t>(schema->size())) {}

  const PropertySchema* schema() const { return schema_; }
  bool valid() const { return schema_ != nullptr; }

  const Value& Get(PropertyId id) const { return values_[id]; }
  common::Result<Value> Get(const std::string& name) const;

  /// Sets by id without type checking (hot path inside the engine).
  void SetUnchecked(PropertyId id, Value v) { values_[id] = std::move(v); }

  /// Makes this the empty descriptor of `schema` (every annotation Null),
  /// reusing the value storage: no allocation once it has the capacity.
  void Reset(const PropertySchema* schema) {
    schema_ = schema;
    values_.assign(schema == nullptr ? 0 : static_cast<size_t>(schema->size()),
                   Value());
  }

  /// Sets by name with a type check against the declaration; Null is always
  /// accepted (an unset annotation).
  common::Status Set(const std::string& name, Value v);

  /// Type check + set by id.
  common::Status SetChecked(PropertyId id, Value v);

  bool operator==(const Descriptor& o) const;
  bool operator!=(const Descriptor& o) const { return !(*this == o); }
  uint64_t Hash() const;

  /// "{num_records: 100, tuple_order: DONT_CARE}"; unset (Null) annotations
  /// are omitted.
  std::string ToString() const;

 private:
  const PropertySchema* schema_ = nullptr;
  std::vector<Value> values_;
};

/// \brief A projection of a descriptor onto a subset of properties.
///
/// P2V splits Prairie's single descriptor into Volcano's operator/algorithm
/// argument, physical-property vector and cost; PropertySlice names such a
/// subset once so the split is consistent everywhere.
struct PropertySlice {
  std::vector<PropertyId> ids;

  /// Copies the sliced annotations of `full` into a fresh descriptor with
  /// only those annotations set (others Null).
  Descriptor Project(const Descriptor& full) const;

  /// Hash of just the sliced annotations of `d`.
  uint64_t HashOf(const Descriptor& d) const;

  /// Equality restricted to the sliced annotations.
  bool EqualOn(const Descriptor& a, const Descriptor& b) const;
};

}  // namespace prairie::algebra
