#include "catalog/catalog.h"

#include <algorithm>

#include "common/strings.h"

namespace prairie::catalog {

using common::Result;
using common::Status;

const AttributeDef* StoredFile::FindAttr(const std::string& attr_name) const {
  for (const AttributeDef& a : attrs_) {
    if (a.name == attr_name) return &a;
  }
  return nullptr;
}

Result<AttributeDef> StoredFile::RequireAttr(const std::string& name) const {
  const AttributeDef* a = FindAttr(name);
  if (a == nullptr) {
    return Status::NotFound("file '" + name_ + "' has no attribute '" + name +
                            "'");
  }
  return *a;
}

bool StoredFile::HasIndexOn(const std::string& attr_name) const {
  return FindIndexOn(attr_name) != nullptr;
}

const IndexDef* StoredFile::FindIndexOn(const std::string& attr_name) const {
  for (const IndexDef& idx : indices_) {
    if (idx.attr == attr_name) return &idx;
  }
  return nullptr;
}

algebra::AttrList StoredFile::QualifiedAttrs() const {
  algebra::AttrList out;
  out.reserve(attrs_.size());
  for (const AttributeDef& a : attrs_) {
    out.push_back(algebra::Attr{name_, a.name});
  }
  return out;
}

algebra::PooledAttrs StoredFile::PooledQualifiedAttrs() const {
  if (algebra::PooledAttrs cached =
          qualified_.list.load(std::memory_order_acquire)) {
    return cached;
  }
  algebra::PooledAttrs pooled = algebra::InternAttrs(QualifiedAttrs());
  algebra::PooledAttrs expected = nullptr;
  // A thread that loses the exchange interned the same list.
  qualified_.list.compare_exchange_strong(expected, pooled,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  return pooled;
}

std::string StoredFile::ToString() const {
  std::string out = common::StringPrintf(
      "file %s (card=%lld, tuple=%lldB) {", name_.c_str(),
      static_cast<long long>(cardinality_), static_cast<long long>(tuple_size_));
  std::vector<std::string> parts;
  for (const AttributeDef& a : attrs_) {
    std::string s = a.name;
    if (a.is_reference()) s += " ref " + a.ref_class;
    if (a.set_valued) s += " set";
    if (HasIndexOn(a.name)) s += " indexed";
    parts.push_back(s);
  }
  out += common::Join(parts, ", ") + "}";
  return out;
}

uint64_t Catalog::NextUid() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Catalog& Catalog::operator=(const Catalog& o) {
  if (this != &o) {
    order_ = o.order_;
    files_ = o.files_;
    // The assigned-to object keeps its own uid but its derived state is
    // now arbitrary — invalidate.
    BumpVersion();
  }
  return *this;
}

Catalog::Catalog(Catalog&& o) noexcept
    : order_(std::move(o.order_)),
      files_(std::move(o.files_)),
      uid_(o.uid_),
      version_(o.version()) {
  // The moved-from shell must not keep answering to the old identity.
  o.uid_ = NextUid();
}

Catalog& Catalog::operator=(Catalog&& o) noexcept {
  if (this != &o) {
    order_ = std::move(o.order_);
    files_ = std::move(o.files_);
    uid_ = o.uid_;
    version_.store(o.version(), std::memory_order_release);
    o.uid_ = NextUid();
  }
  return *this;
}

Status Catalog::AddFile(StoredFile file) {
  const std::string name = file.name();
  if (files_.count(name) > 0) {
    return Status::AlreadyExists("file '" + name + "' already in catalog");
  }
  order_.push_back(name);
  files_.emplace(name, std::move(file));
  BumpVersion();
  return Status::OK();
}

StoredFile* Catalog::MutableFile(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return nullptr;
  BumpVersion();
  return &it->second;
}

const StoredFile* Catalog::Find(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

Result<const StoredFile*> Catalog::Require(const std::string& name) const {
  const StoredFile* f = Find(name);
  if (f == nullptr) {
    return Status::NotFound("file '" + name + "' not in catalog");
  }
  return f;
}

std::vector<std::string> Catalog::FileNames() const { return order_; }

int64_t Catalog::DistinctValues(const algebra::Attr& attr) const {
  const StoredFile* f = Find(attr.cls);
  if (f == nullptr) return 100;
  const AttributeDef* a = f->FindAttr(attr.name);
  if (a == nullptr) return 100;
  return std::max<int64_t>(1, a->distinct_values);
}

bool Catalog::HasIndexOn(const algebra::Attr& attr) const {
  const StoredFile* f = Find(attr.cls);
  return f != nullptr && f->HasIndexOn(attr.name);
}

std::string Catalog::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(order_.size());
  for (const std::string& name : order_) {
    parts.push_back(files_.at(name).ToString());
  }
  return common::Join(parts, "\n");
}

namespace {

double CmpSelectivity(const algebra::Predicate& p, const Catalog& catalog) {
  using algebra::CmpOp;
  const bool both_attrs = p.left().is_attr() && p.right().is_attr();
  switch (p.cmp_op()) {
    case CmpOp::kEq: {
      if (both_attrs) {
        int64_t dl = catalog.DistinctValues(p.left().attr);
        int64_t dr = catalog.DistinctValues(p.right().attr);
        return 1.0 / static_cast<double>(std::max<int64_t>({1, dl, dr}));
      }
      const algebra::Attr& a =
          p.left().is_attr() ? p.left().attr : p.right().attr;
      return 1.0 / static_cast<double>(catalog.DistinctValues(a));
    }
    case CmpOp::kNe: {
      const algebra::Attr& a =
          p.left().is_attr() ? p.left().attr : p.right().attr;
      double eq = 1.0 / static_cast<double>(catalog.DistinctValues(a));
      return 1.0 - eq;
    }
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe:
      return 1.0 / 3.0;
  }
  return 0.5;
}

}  // namespace

double EstimateSelectivity(const algebra::PredicateRef& pred,
                           const Catalog& catalog) {
  using Kind = algebra::Predicate::Kind;
  if (pred == nullptr) return 1.0;
  switch (pred->kind()) {
    case Kind::kTrue:
      return 1.0;
    case Kind::kFalse:
      return 0.0;
    case Kind::kCmp:
      return CmpSelectivity(*pred, catalog);
    case Kind::kAnd: {
      double s = 1.0;
      for (const algebra::PredicateRef& c : pred->children()) {
        s *= EstimateSelectivity(c, catalog);
      }
      return s;
    }
    case Kind::kOr: {
      // Inclusion-exclusion under independence: 1 - prod(1 - s_i).
      double miss = 1.0;
      for (const algebra::PredicateRef& c : pred->children()) {
        miss *= 1.0 - EstimateSelectivity(c, catalog);
      }
      return 1.0 - miss;
    }
    case Kind::kNot:
      return 1.0 - EstimateSelectivity(pred->children()[0], catalog);
  }
  return 1.0;
}

}  // namespace prairie::catalog
