#include "exec/operators.h"

#include <algorithm>

#include "exec/eval.h"

namespace prairie::exec {

using algebra::Attr;
using algebra::AttrList;
using algebra::Predicate;
using algebra::PredicateRef;
using algebra::SortSpec;
using common::Result;
using common::Status;

Result<std::vector<Row>> CollectAll(Iterator* it) {
  PRAIRIE_RETURN_NOT_OK(it->Open());
  std::vector<Row> out;
  Row row;
  while (true) {
    PRAIRIE_ASSIGN_OR_RETURN(bool more, it->Next(&row));
    if (!more) break;
    out.push_back(row);
  }
  PRAIRIE_RETURN_NOT_OK(it->Close());
  return out;
}

namespace {

bool RowLess(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = CompareDatum(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

std::vector<Row> Canonicalize(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

bool SameResult(std::vector<Row> a, std::vector<Row> b) {
  return Canonicalize(std::move(a)) == Canonicalize(std::move(b));
}

namespace {

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

class TableScanIter : public Iterator {
 public:
  explicit TableScanIter(const Table* table) : table_(table) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    if (pos_ >= table_->NumRows()) return false;
    *out = table_->row(pos_++);
    return true;
  }
  Status Close() override { return Status::OK(); }
  const RowSchema& schema() const override { return table_->schema(); }

 private:
  const Table* table_;
  size_t pos_ = 0;
};

class IndexScanIter : public Iterator {
 public:
  IndexScanIter(const Table* table, std::string attr, std::optional<Datum> key,
                PredicateRef residual)
      : table_(table),
        attr_(std::move(attr)),
        key_(std::move(key)),
        residual_(std::move(residual)) {}

  Status Open() override {
    pos_ = 0;
    if (key_.has_value()) {
      PRAIRIE_ASSIGN_OR_RETURN(order_, table_->IndexLookup(attr_, *key_));
    } else {
      PRAIRIE_ASSIGN_OR_RETURN(order_, table_->IndexOrder(attr_));
    }
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    while (pos_ < order_.size()) {
      const Row& r = table_->row(order_[pos_++]);
      PRAIRIE_ASSIGN_OR_RETURN(bool keep,
                               EvalPredicate(residual_, r, table_->schema()));
      if (keep) {
        *out = r;
        return true;
      }
    }
    return false;
  }
  Status Close() override { return Status::OK(); }
  const RowSchema& schema() const override { return table_->schema(); }

 private:
  const Table* table_;
  std::string attr_;
  std::optional<Datum> key_;
  PredicateRef residual_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Filter / project
// ---------------------------------------------------------------------------

class FilterIter : public Iterator {
 public:
  FilterIter(IterPtr input, PredicateRef pred)
      : input_(std::move(input)), pred_(std::move(pred)) {}

  Status Open() override { return input_->Open(); }
  Result<bool> Next(Row* out) override {
    while (true) {
      PRAIRIE_ASSIGN_OR_RETURN(bool more, input_->Next(out));
      if (!more) return false;
      PRAIRIE_ASSIGN_OR_RETURN(bool keep,
                               EvalPredicate(pred_, *out, input_->schema()));
      if (keep) return true;
    }
  }
  Status Close() override { return input_->Close(); }
  const RowSchema& schema() const override { return input_->schema(); }

 private:
  IterPtr input_;
  PredicateRef pred_;
};

class ProjectIter : public Iterator {
 public:
  ProjectIter(IterPtr input, AttrList keep) : input_(std::move(input)) {
    schema_.attrs = std::move(keep);
  }

  Status Open() override {
    PRAIRIE_RETURN_NOT_OK(input_->Open());
    positions_.clear();
    for (const Attr& a : schema_.attrs) {
      PRAIRIE_ASSIGN_OR_RETURN(int i, input_->schema().Require(a));
      positions_.push_back(static_cast<size_t>(i));
    }
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    Row in;
    PRAIRIE_ASSIGN_OR_RETURN(bool more, input_->Next(&in));
    if (!more) return false;
    out->clear();
    out->reserve(positions_.size());
    for (size_t p : positions_) out->push_back(in[p]);
    return true;
  }
  Status Close() override { return input_->Close(); }
  const RowSchema& schema() const override { return schema_; }

 private:
  IterPtr input_;
  RowSchema schema_;
  std::vector<size_t> positions_;
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

Row ConcatRows(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Splits `pred` into equi-conjuncts spanning both sides (as attribute
/// position pairs) and a residual predicate.
Status SplitEquiJoin(const PredicateRef& pred, const RowSchema& left,
                     const RowSchema& right,
                     std::vector<std::pair<size_t, size_t>>* keys,
                     PredicateRef* residual) {
  std::vector<PredicateRef> rest;
  if (pred != nullptr) {
    for (const PredicateRef& c : algebra::Conjuncts(pred)) {
      if (c->IsEquiJoin()) {
        int ll = left.Find(c->left().attr);
        int rr = right.Find(c->right().attr);
        if (ll >= 0 && rr >= 0) {
          keys->emplace_back(static_cast<size_t>(ll),
                             static_cast<size_t>(rr));
          continue;
        }
        int lr = left.Find(c->right().attr);
        int rl = right.Find(c->left().attr);
        if (lr >= 0 && rl >= 0) {
          keys->emplace_back(static_cast<size_t>(lr),
                             static_cast<size_t>(rl));
          continue;
        }
      }
      rest.push_back(c);
    }
  }
  *residual = rest.empty() ? nullptr : Predicate::And(std::move(rest));
  return Status::OK();
}

class NestedLoopsJoinIter : public Iterator {
 public:
  NestedLoopsJoinIter(IterPtr outer, IterPtr inner, PredicateRef pred)
      : outer_(std::move(outer)),
        inner_(std::move(inner)),
        pred_(std::move(pred)),
        schema_(RowSchema::Concat(outer_->schema(), inner_->schema())) {}

  Status Open() override {
    PRAIRIE_RETURN_NOT_OK(outer_->Open());
    PRAIRIE_ASSIGN_OR_RETURN(inner_rows_, CollectAll(inner_.get()));
    have_outer_ = false;
    inner_pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    while (true) {
      if (!have_outer_) {
        PRAIRIE_ASSIGN_OR_RETURN(bool more, outer_->Next(&outer_row_));
        if (!more) return false;
        have_outer_ = true;
        inner_pos_ = 0;
      }
      while (inner_pos_ < inner_rows_.size()) {
        Row joined = ConcatRows(outer_row_, inner_rows_[inner_pos_++]);
        PRAIRIE_ASSIGN_OR_RETURN(bool keep,
                                 EvalPredicate(pred_, joined, schema_));
        if (keep) {
          *out = std::move(joined);
          return true;
        }
      }
      have_outer_ = false;
    }
  }
  Status Close() override { return outer_->Close(); }
  const RowSchema& schema() const override { return schema_; }

 private:
  IterPtr outer_, inner_;
  PredicateRef pred_;
  RowSchema schema_;
  std::vector<Row> inner_rows_;
  Row outer_row_;
  bool have_outer_ = false;
  size_t inner_pos_ = 0;
};

struct KeyLess {
  bool operator()(const std::vector<Datum>& a,
                  const std::vector<Datum>& b) const {
    return RowLess(a, b);
  }
};

class HashJoinIter : public Iterator {
 public:
  HashJoinIter(IterPtr outer, IterPtr inner, PredicateRef pred)
      : outer_(std::move(outer)),
        inner_(std::move(inner)),
        pred_(std::move(pred)),
        schema_(RowSchema::Concat(outer_->schema(), inner_->schema())) {}

  Status Open() override {
    keys_.clear();
    PRAIRIE_RETURN_NOT_OK(SplitEquiJoin(pred_, outer_->schema(),
                                        inner_->schema(), &keys_, &residual_));
    PRAIRIE_ASSIGN_OR_RETURN(inner_rows_, CollectAll(inner_.get()));
    build_.clear();
    for (size_t i = 0; i < inner_rows_.size(); ++i) {
      build_[InnerKey(inner_rows_[i])].push_back(i);
    }
    PRAIRIE_RETURN_NOT_OK(outer_->Open());
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (matches_ != nullptr) {
        while (match_pos_ < matches_->size()) {
          Row joined =
              ConcatRows(outer_row_, inner_rows_[(*matches_)[match_pos_++]]);
          PRAIRIE_ASSIGN_OR_RETURN(bool keep,
                                   EvalPredicate(residual_, joined, schema_));
          if (keep) {
            *out = std::move(joined);
            return true;
          }
        }
        matches_ = nullptr;
      }
      PRAIRIE_ASSIGN_OR_RETURN(bool more, outer_->Next(&outer_row_));
      if (!more) return false;
      auto it = build_.find(OuterKey(outer_row_));
      if (it != build_.end()) {
        matches_ = &it->second;
        match_pos_ = 0;
      }
    }
  }
  Status Close() override { return outer_->Close(); }
  const RowSchema& schema() const override { return schema_; }

 private:
  std::vector<Datum> OuterKey(const Row& r) const {
    std::vector<Datum> k;
    k.reserve(keys_.size());
    for (const auto& [l, rr] : keys_) k.push_back(r[l]);
    return k;
  }
  std::vector<Datum> InnerKey(const Row& r) const {
    std::vector<Datum> k;
    k.reserve(keys_.size());
    for (const auto& [l, rr] : keys_) k.push_back(r[rr]);
    return k;
  }

  IterPtr outer_, inner_;
  PredicateRef pred_, residual_;
  RowSchema schema_;
  std::vector<std::pair<size_t, size_t>> keys_;
  std::vector<Row> inner_rows_;
  std::map<std::vector<Datum>, std::vector<size_t>, KeyLess> build_;
  Row outer_row_;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

class MergeJoinIter : public Iterator {
 public:
  MergeJoinIter(IterPtr outer, IterPtr inner, PredicateRef pred)
      : outer_(std::move(outer)),
        inner_(std::move(inner)),
        pred_(std::move(pred)),
        schema_(RowSchema::Concat(outer_->schema(), inner_->schema())) {}

  Status Open() override {
    std::vector<std::pair<size_t, size_t>> keys;
    PRAIRIE_RETURN_NOT_OK(SplitEquiJoin(pred_, outer_->schema(),
                                        inner_->schema(), &keys, &residual_));
    if (keys.empty()) {
      return Status::ExecError(
          "merge join requires an equi-join predicate");
    }
    lkey_ = keys[0].first;
    rkey_ = keys[0].second;
    // Further equi keys become residual comparisons.
    for (size_t i = 1; i < keys.size(); ++i) {
      residual_ = algebra::PredAnd(
          residual_,
          Predicate::EqAttrs(outer_->schema().attrs[keys[i].first],
                             inner_->schema().attrs[keys[i].second]));
    }
    PRAIRIE_ASSIGN_OR_RETURN(left_rows_, CollectAll(outer_.get()));
    PRAIRIE_ASSIGN_OR_RETURN(right_rows_, CollectAll(inner_.get()));
    li_ = ri_ = 0;
    group_.clear();
    gpos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      // Emit pending pairs for the current left row's group.
      while (gpos_ < group_.size()) {
        Row joined = ConcatRows(left_rows_[li_], right_rows_[group_[gpos_++]]);
        PRAIRIE_ASSIGN_OR_RETURN(bool keep,
                                 EvalPredicate(residual_, joined, schema_));
        if (keep) {
          *out = std::move(joined);
          return true;
        }
      }
      if (!group_.empty()) {
        // Advance to the next left row; keep the group if the key repeats.
        size_t prev = li_++;
        if (li_ < left_rows_.size() &&
            CompareDatum(left_rows_[li_][lkey_], left_rows_[prev][lkey_]) ==
                0) {
          gpos_ = 0;
          continue;
        }
        group_.clear();
        gpos_ = 0;
      }
      if (li_ >= left_rows_.size() || ri_ >= right_rows_.size()) return false;
      int c = CompareDatum(left_rows_[li_][lkey_], right_rows_[ri_][rkey_]);
      if (c < 0) {
        ++li_;
      } else if (c > 0) {
        ++ri_;
      } else {
        // Collect the right group with this key.
        group_.clear();
        size_t r = ri_;
        while (r < right_rows_.size() &&
               CompareDatum(right_rows_[r][rkey_],
                            right_rows_[ri_][rkey_]) == 0) {
          group_.push_back(r++);
        }
        ri_ = r;
        gpos_ = 0;
      }
    }
  }
  Status Close() override { return Status::OK(); }
  const RowSchema& schema() const override { return schema_; }

 private:
  IterPtr outer_, inner_;
  PredicateRef pred_, residual_;
  RowSchema schema_;
  size_t lkey_ = 0, rkey_ = 0;
  std::vector<Row> left_rows_, right_rows_;
  size_t li_ = 0, ri_ = 0;
  std::vector<size_t> group_;
  size_t gpos_ = 0;
};

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

class SortIter : public Iterator {
 public:
  SortIter(IterPtr input, SortSpec spec)
      : input_(std::move(input)), spec_(std::move(spec)) {}

  Status Open() override {
    PRAIRIE_ASSIGN_OR_RETURN(rows_, CollectAll(input_.get()));
    std::vector<size_t> key_pos;
    std::vector<bool> asc;
    for (const SortSpec::Key& k : spec_.keys) {
      PRAIRIE_ASSIGN_OR_RETURN(int i, input_->schema().Require(k.attr));
      key_pos.push_back(static_cast<size_t>(i));
      asc.push_back(k.ascending);
    }
    std::stable_sort(rows_.begin(), rows_.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t i = 0; i < key_pos.size(); ++i) {
                         int c = CompareDatum(a[key_pos[i]], b[key_pos[i]]);
                         if (c != 0) return asc[i] ? c < 0 : c > 0;
                       }
                       return false;
                     });
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }
  Status Close() override { return Status::OK(); }
  const RowSchema& schema() const override { return input_->schema(); }

 private:
  IterPtr input_;
  SortSpec spec_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Object-model operators
// ---------------------------------------------------------------------------

class DerefIter : public Iterator {
 public:
  DerefIter(IterPtr input, Attr ref_attr, const Table* target)
      : input_(std::move(input)),
        ref_attr_(std::move(ref_attr)),
        target_(target),
        schema_(RowSchema::Concat(input_->schema(), target->schema())) {}

  Status Open() override {
    PRAIRIE_RETURN_NOT_OK(input_->Open());
    PRAIRIE_ASSIGN_OR_RETURN(int i, input_->schema().Require(ref_attr_));
    ref_pos_ = static_cast<size_t>(i);
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    Row in;
    while (true) {
      PRAIRIE_ASSIGN_OR_RETURN(bool more, input_->Next(&in));
      if (!more) return false;
      const Datum& oid = in[ref_pos_];
      if (!std::holds_alternative<int64_t>(oid.v)) continue;
      int64_t id = std::get<int64_t>(oid.v);
      if (id < 0 || id >= static_cast<int64_t>(target_->NumRows())) continue;
      *out = ConcatRows(in, target_->row(static_cast<size_t>(id)));
      return true;
    }
  }
  Status Close() override { return input_->Close(); }
  const RowSchema& schema() const override { return schema_; }

 private:
  IterPtr input_;
  Attr ref_attr_;
  const Table* target_;
  RowSchema schema_;
  size_t ref_pos_ = 0;
};

class UnnestScanIter : public Iterator {
 public:
  UnnestScanIter(const Table* table, std::string set_attr,
                 PredicateRef residual)
      : table_(table),
        set_attr_(std::move(set_attr)),
        residual_(std::move(residual)) {}

  Status Open() override {
    PRAIRIE_ASSIGN_OR_RETURN(
        int i,
        table_->schema().Require(algebra::Attr{table_->name(), set_attr_}));
    attr_pos_ = static_cast<size_t>(i);
    row_ = 0;
    elem_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    while (row_ < table_->NumRows()) {
      const std::vector<Datum>* set = table_->GetSetValues(set_attr_, row_);
      size_t n = set == nullptr ? 0 : set->size();
      if (elem_ < n) {
        Row r = table_->row(row_);
        r[attr_pos_] = (*set)[elem_++];
        PRAIRIE_ASSIGN_OR_RETURN(bool keep,
                                 EvalPredicate(residual_, r, schema()));
        if (keep) {
          *out = std::move(r);
          return true;
        }
        continue;
      }
      ++row_;
      elem_ = 0;
    }
    return false;
  }
  Status Close() override { return Status::OK(); }
  const RowSchema& schema() const override { return table_->schema(); }

 private:
  const Table* table_;
  std::string set_attr_;
  PredicateRef residual_;
  size_t attr_pos_ = 0;
  size_t row_ = 0;
  size_t elem_ = 0;
};

class FlattenIter : public Iterator {
 public:
  FlattenIter(IterPtr input, Attr set_attr, const Table* table)
      : input_(std::move(input)),
        set_attr_(std::move(set_attr)),
        table_(table) {}

  Status Open() override {
    PRAIRIE_RETURN_NOT_OK(input_->Open());
    PRAIRIE_ASSIGN_OR_RETURN(
        int a, input_->schema().Require(set_attr_));
    attr_pos_ = static_cast<size_t>(a);
    PRAIRIE_ASSIGN_OR_RETURN(
        int o, input_->schema().Require(Attr{set_attr_.cls, "oid"}));
    oid_pos_ = static_cast<size_t>(o);
    set_ = nullptr;
    elem_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    while (true) {
      if (set_ != nullptr && elem_ < set_->size()) {
        Row r = current_;
        r[attr_pos_] = (*set_)[elem_++];
        *out = std::move(r);
        return true;
      }
      set_ = nullptr;
      PRAIRIE_ASSIGN_OR_RETURN(bool more, input_->Next(&current_));
      if (!more) return false;
      const Datum& oid = current_[oid_pos_];
      if (!std::holds_alternative<int64_t>(oid.v)) continue;
      int64_t id = std::get<int64_t>(oid.v);
      if (id < 0 || id >= static_cast<int64_t>(table_->NumRows())) continue;
      set_ = table_->GetSetValues(set_attr_.name, static_cast<size_t>(id));
      elem_ = 0;
    }
  }
  Status Close() override { return input_->Close(); }
  const RowSchema& schema() const override { return input_->schema(); }

 private:
  IterPtr input_;
  Attr set_attr_;
  const Table* table_;
  size_t attr_pos_ = 0;
  size_t oid_pos_ = 0;
  Row current_;
  const std::vector<Datum>* set_ = nullptr;
  size_t elem_ = 0;
};

}  // namespace

IterPtr MakeFlatten(IterPtr input, Attr set_attr, const Table* table) {
  return std::make_unique<FlattenIter>(std::move(input), std::move(set_attr),
                                       table);
}

IterPtr MakeTableScan(const Table* table) {
  return std::make_unique<TableScanIter>(table);
}

IterPtr MakeIndexScan(const Table* table, std::string attr_name,
                      std::optional<Datum> key, PredicateRef residual) {
  return std::make_unique<IndexScanIter>(table, std::move(attr_name),
                                         std::move(key), std::move(residual));
}

IterPtr MakeFilter(IterPtr input, PredicateRef pred) {
  return std::make_unique<FilterIter>(std::move(input), std::move(pred));
}

IterPtr MakeProject(IterPtr input, AttrList keep) {
  return std::make_unique<ProjectIter>(std::move(input), std::move(keep));
}

IterPtr MakeNestedLoopsJoin(IterPtr outer, IterPtr inner, PredicateRef pred) {
  return std::make_unique<NestedLoopsJoinIter>(std::move(outer),
                                               std::move(inner),
                                               std::move(pred));
}

IterPtr MakeHashJoin(IterPtr outer, IterPtr inner, PredicateRef pred) {
  return std::make_unique<HashJoinIter>(std::move(outer), std::move(inner),
                                        std::move(pred));
}

IterPtr MakeMergeJoin(IterPtr outer, IterPtr inner, PredicateRef pred) {
  return std::make_unique<MergeJoinIter>(std::move(outer), std::move(inner),
                                         std::move(pred));
}

IterPtr MakeSort(IterPtr input, SortSpec spec) {
  return std::make_unique<SortIter>(std::move(input), std::move(spec));
}

IterPtr MakeDeref(IterPtr input, Attr ref_attr, const Table* target) {
  return std::make_unique<DerefIter>(std::move(input), std::move(ref_attr),
                                     target);
}

IterPtr MakeUnnestScan(const Table* table, std::string set_attr,
                       PredicateRef residual) {
  return std::make_unique<UnnestScanIter>(table, std::move(set_attr),
                                          std::move(residual));
}

}  // namespace prairie::exec
