// Catalog: stored files (base relations / classes), their attributes,
// statistics and indices. The optimizer reads cardinalities, tuple sizes
// and index availability from here; the paper's experiments vary these
// per-class properties across query instances (§4.3).

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/predicate.h"
#include "algebra/value.h"
#include "common/result.h"

namespace prairie::catalog {

/// \brief One attribute of a stored file.
struct AttributeDef {
  std::string name;
  algebra::ValueType type = algebra::ValueType::kInt;
  /// Estimated number of distinct values (for selectivity estimation).
  int64_t distinct_values = 100;
  /// For object-oriented schemas: non-empty means this attribute is a
  /// reference (OID) to an object of class `ref_class` — the MAT operator
  /// dereferences such attributes.
  std::string ref_class;
  /// For object-oriented schemas: true means the attribute is set-valued;
  /// the UNNEST operator flattens it.
  bool set_valued = false;
  /// Average set cardinality when set_valued.
  double avg_set_size = 1.0;

  bool is_reference() const { return !ref_class.empty(); }
};

/// \brief A secondary index over one attribute of a stored file.
struct IndexDef {
  enum class Kind { kBtree, kHash };
  std::string attr;
  Kind kind = Kind::kBtree;
};

/// \brief A stored file: a base relation (relational model) or a class
/// extent (object model).
class StoredFile {
 public:
  StoredFile() = default;
  StoredFile(std::string name, std::vector<AttributeDef> attrs,
             int64_t cardinality, int64_t tuple_size_bytes)
      : name_(std::move(name)),
        attrs_(std::move(attrs)),
        cardinality_(cardinality),
        tuple_size_(tuple_size_bytes) {}

  const std::string& name() const { return name_; }
  int64_t cardinality() const { return cardinality_; }
  int64_t tuple_size() const { return tuple_size_; }

  void set_cardinality(int64_t c) { cardinality_ = c; }
  void set_tuple_size(int64_t s) { tuple_size_ = s; }

  const std::vector<AttributeDef>& attrs() const { return attrs_; }
  const AttributeDef* FindAttr(const std::string& attr_name) const;
  common::Result<AttributeDef> RequireAttr(const std::string& name) const;

  void AddIndex(IndexDef index) { indices_.push_back(std::move(index)); }
  const std::vector<IndexDef>& indices() const { return indices_; }
  bool HasIndexOn(const std::string& attr_name) const;
  const IndexDef* FindIndexOn(const std::string& attr_name) const;

  /// This file's attributes as a qualified AttrList ("C1.a", "C1.b", ...).
  algebra::AttrList QualifiedAttrs() const;

  /// QualifiedAttrs() as a pooled list, interned on the first call and
  /// kept, so a repeated call takes no lock and copies nothing.
  algebra::PooledAttrs PooledQualifiedAttrs() const;

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<AttributeDef> attrs_;
  int64_t cardinality_ = 0;
  int64_t tuple_size_ = 0;
  std::vector<IndexDef> indices_;

  /// PooledQualifiedAttrs(), published by compare-exchange. It depends
  /// only on the name and attributes, which never change after
  /// construction, so a copy carries it along.
  struct PooledCache {
    mutable std::atomic<algebra::PooledAttrs> list{nullptr};
    PooledCache() = default;
    PooledCache(const PooledCache& o)
        : list(o.list.load(std::memory_order_acquire)) {}
    PooledCache& operator=(const PooledCache& o) {
      list.store(o.list.load(std::memory_order_acquire),
                 std::memory_order_release);
      return *this;
    }
  };
  PooledCache qualified_;
};

/// \brief Named collection of stored files plus statistics queries.
///
/// Every catalog carries two identity/staleness signals for caches keyed
/// on catalog state (the plan cache, DESIGN.md §8):
///  - `uid()`: a process-unique id assigned at construction. Copies get a
///    fresh uid (they can diverge independently); moves transfer the uid
///    (the moved-to object IS the same logical catalog).
///  - `version()`: a monotonically increasing counter bumped by every
///    mutation (AddFile, MutableFile, BumpVersion). Readers snapshot it
///    and treat any change as "everything derived from this catalog is
///    stale". The counter is atomic so concurrent bumps/reads are safe;
///    structural mutation itself is NOT thread-safe and must not race
///    with readers.
class Catalog {
 public:
  Catalog() : uid_(NextUid()) {}
  Catalog(const Catalog& o)
      : order_(o.order_), files_(o.files_), uid_(NextUid()) {}
  Catalog& operator=(const Catalog& o);
  Catalog(Catalog&& o) noexcept;
  Catalog& operator=(Catalog&& o) noexcept;

  common::Status AddFile(StoredFile file);

  const StoredFile* Find(const std::string& name) const;
  common::Result<const StoredFile*> Require(const std::string& name) const;

  /// Mutable access to a stored file for statistics/index updates; bumps
  /// the version (conservatively — even if the caller ends up writing
  /// nothing). Null when `name` is unknown.
  StoredFile* MutableFile(const std::string& name);

  /// Process-unique identity of this catalog object.
  uint64_t uid() const { return uid_; }

  /// Mutation epoch: bumped by AddFile/MutableFile/BumpVersion.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Explicitly invalidates everything derived from this catalog (e.g.
  /// after mutating statistics through a retained StoredFile pointer).
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  std::vector<std::string> FileNames() const;
  size_t size() const { return files_.size(); }

  /// Distinct-value count of `attr` if the class and attribute are known,
  /// otherwise a default of 100.
  int64_t DistinctValues(const algebra::Attr& attr) const;

  /// True if `attr.cls` is a catalog file with an index on `attr.name`.
  bool HasIndexOn(const algebra::Attr& attr) const;

  std::string ToString() const;

 private:
  static uint64_t NextUid();

  std::vector<std::string> order_;
  std::unordered_map<std::string, StoredFile> files_;
  uint64_t uid_ = 0;
  std::atomic<uint64_t> version_{0};
};

/// \brief Textbook selectivity estimation (System R style, paper §5 cites
/// Selinger et al.):
///  - attr = const        -> 1 / distinct(attr)
///  - attr = attr         -> 1 / max(distinct(l), distinct(r))
///  - range comparison    -> 1/3
///  - !=                  -> 1 - 1/distinct
///  - AND                 -> product, OR -> inclusion-exclusion, NOT -> 1-s
/// A null or TRUE predicate has selectivity 1.
double EstimateSelectivity(const algebra::PredicateRef& pred,
                           const Catalog& catalog);

}  // namespace prairie::catalog
