#include "algebra/predicate.h"

#include <algorithm>
#include <memory>

#include "common/strings.h"

namespace prairie::algebra {

std::string_view CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

uint64_t Scalar::Hash() const {
  uint64_t h = v.index() * 0xc2b2ae3d27d4eb4fULL;
  switch (v.index()) {
    case 1:
      return common::HashMix(h, std::get<bool>(v));
    case 2:
      return common::HashMix(h, std::get<int64_t>(v));
    case 3:
      return common::HashMix(h, std::get<double>(v));
    case 4:
      return common::HashMix(h, std::get<std::string>(v));
    default:
      return h;
  }
}

std::string Scalar::ToString() const {
  switch (v.index()) {
    case 1:
      return std::get<bool>(v) ? "true" : "false";
    case 2:
      return std::to_string(std::get<int64_t>(v));
    case 3:
      return common::FormatDouble(std::get<double>(v));
    case 4:
      return "'" + std::get<std::string>(v) + "'";
    default:
      return "null";
  }
}

bool Term::operator==(const Term& o) const {
  if (kind != o.kind) return false;
  switch (kind) {
    case Kind::kAttr:
      return attr == o.attr;
    case Kind::kConst:
      return scalar == o.scalar;
    case Kind::kParam:
      // Ordinal identity only; the payload scalar is a canonicalization
      // scratch slot and must not affect equality (see predicate.h).
      return param == o.param;
  }
  return false;
}

uint64_t Term::Hash() const {
  uint64_t h = static_cast<uint64_t>(kind) + 0x1357;
  switch (kind) {
    case Kind::kAttr:
      return common::HashCombine(h, attr.Hash());
    case Kind::kConst:
      return common::HashCombine(h, scalar.Hash());
    case Kind::kParam:
      // Kind-only: blind to both ordinal and payload so conjunct sorting
      // and descriptor interning treat all markers alike (see predicate.h).
      return h;
  }
  return h;
}

std::string Term::ToString() const {
  switch (kind) {
    case Kind::kAttr:
      return attr.ToString();
    case Kind::kParam:
      return "?" + std::to_string(param);
    default:
      return scalar.ToString();
  }
}

std::shared_ptr<Predicate> Predicate::Make(Kind kind) {
  auto p = std::make_shared<Predicate>(Token{});
  p->kind_ = kind;
  return p;
}

const PredicateRef& Predicate::True() {
  static const PredicateRef kTrue = Make(Kind::kTrue);
  return kTrue;
}

PredicateRef Predicate::False() {
  static const PredicateRef kFalse = Make(Kind::kFalse);
  return kFalse;
}

PredicateRef Predicate::Cmp(CmpOp op, Term left, Term right) {
  auto p = Make(Kind::kCmp);
  p->cmp_op_ = op;
  p->left_ = std::move(left);
  p->right_ = std::move(right);
  return p;
}

PredicateRef Predicate::EqConst(Attr attr, Scalar constant) {
  return Cmp(CmpOp::kEq, Term::MakeAttr(std::move(attr)),
             Term::MakeConst(std::move(constant)));
}

PredicateRef Predicate::EqAttrs(Attr left, Attr right) {
  return Cmp(CmpOp::kEq, Term::MakeAttr(std::move(left)),
             Term::MakeAttr(std::move(right)));
}

PredicateRef Predicate::And(std::vector<PredicateRef> children) {
  // Flattening concatenates each child's conjuncts. When every child is
  // its own single conjunct the input is already flat and is kept.
  size_t count = 0;
  bool flat = true;
  for (const PredicateRef& c : children) {
    const std::span<const PredicateRef> cs = Conjuncts(c);
    count += cs.size();
    flat = flat && cs.size() == 1 && cs.data() == &c;
  }
  std::vector<PredicateRef> conj;
  if (flat) {
    conj = std::move(children);
  } else {
    conj.reserve(count);
    for (const PredicateRef& c : children) {
      const std::span<const PredicateRef> cs = Conjuncts(c);
      conj.insert(conj.end(), cs.begin(), cs.end());
    }
  }
  if (conj.empty()) return True();
  if (conj.size() == 1) return conj[0];
  // Canonical conjunct order (by structural hash): conjunctions assembled
  // along different rule-derivation paths must compare equal so the memo
  // deduplicates the expressions that carry them. Conjunctions are short,
  // so a stable insertion sort does the job without std::stable_sort's
  // scratch buffer; both give the one stable order.
  for (size_t i = 1; i < conj.size(); ++i) {
    for (size_t j = i; j > 0 && conj[j]->Hash() < conj[j - 1]->Hash(); --j) {
      std::swap(conj[j], conj[j - 1]);
    }
  }
  auto p = Make(Kind::kAnd);
  p->children_ = std::move(conj);
  return p;
}

PredicateRef Predicate::Or(std::vector<PredicateRef> children) {
  if (children.empty()) return False();
  if (children.size() == 1) return children[0];
  auto p = Make(Kind::kOr);
  p->children_ = std::move(children);
  return p;
}

PredicateRef Predicate::Not(PredicateRef child) {
  auto p = Make(Kind::kNot);
  p->children_.push_back(std::move(child));
  return p;
}

PooledAttrs Predicate::ReferencedAttrs() const {
  if (PooledAttrs cached = referenced_.load(std::memory_order_acquire)) {
    return cached;
  }
  AttrList out;
  switch (kind_) {
    case Kind::kCmp:
      if (left_.is_attr()) out.push_back(left_.attr);
      if (right_.is_attr() && !Contains(out, right_.attr)) {
        out.push_back(right_.attr);
      }
      break;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      // Each child's list is duplicate-free, so sorting the concatenation
      // and dropping repeats is the sorted union.
      for (const PredicateRef& c : children_) {
        const AttrList& sub = c->ReferencedAttrs()->attrs;
        out.insert(out.end(), sub.begin(), sub.end());
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      break;
    default:
      break;
  }
  PooledAttrs pooled = InternAttrs(std::move(out));
  PooledAttrs expected = nullptr;
  // A thread that loses the exchange interned the same list: expected ==
  // pooled.
  referenced_.compare_exchange_strong(expected, pooled,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire);
  return pooled;
}

std::span<const PredicateRef> Conjuncts(const PredicateRef& p) {
  if (p == nullptr || p->is_true()) return {};
  if (p->kind() == Predicate::Kind::kAnd) return p->children();
  return {&p, 1};
}

bool Predicate::IsEquiJoin() const {
  return kind_ == Kind::kCmp && cmp_op_ == CmpOp::kEq && left_.is_attr() &&
         right_.is_attr();
}

bool Predicate::Equals(const Predicate& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      return true;
    case Kind::kCmp:
      return cmp_op_ == o.cmp_op_ && left_ == o.left_ && right_ == o.right_;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot: {
      if (children_.size() != o.children_.size()) return false;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (!children_[i]->Equals(*o.children_[i])) return false;
      }
      return true;
    }
  }
  return false;
}

uint64_t Predicate::Hash() const {
  const uint64_t cached = hash_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  uint64_t h = static_cast<uint64_t>(kind_) * 0xff51afd7ed558ccdULL;
  switch (kind_) {
    case Kind::kCmp:
      h = common::HashMix(h, static_cast<int>(cmp_op_));
      h = common::HashCombine(h, left_.Hash());
      h = common::HashCombine(h, right_.Hash());
      break;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      for (const PredicateRef& c : children_) {
        h = common::HashCombine(h, c->Hash());
      }
      break;
    default:
      break;
  }
  if (h == 0) h = 0x9e3779b9ULL;  // 0 means "not yet computed".
  hash_.store(h, std::memory_order_relaxed);
  return h;
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kFalse:
      return "FALSE";
    case Kind::kCmp:
      return left_.ToString() + " " + std::string(CmpOpName(cmp_op_)) + " " +
             right_.ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(children_.size());
      for (const PredicateRef& c : children_) {
        parts.push_back("(" + c->ToString() + ")");
      }
      return common::Join(parts, kind_ == Kind::kAnd ? " AND " : " OR ");
    }
    case Kind::kNot:
      return "NOT (" + children_[0]->ToString() + ")";
  }
  return "?";
}

bool PredEquals(const PredicateRef& a, const PredicateRef& b) {
  if (a.get() == b.get()) return true;  // Shared trees: one pointer compare.
  const Predicate& pa = a ? *a : *Predicate::True();
  const Predicate& pb = b ? *b : *Predicate::True();
  return pa.Equals(pb);
}

PredicateRef PredAnd(const PredicateRef& a, const PredicateRef& b) {
  // Passes And() the flattened conjuncts, so it keeps the vector as is.
  const std::span<const PredicateRef> ca = Conjuncts(a);
  const std::span<const PredicateRef> cb = Conjuncts(b);
  std::vector<PredicateRef> parts;
  parts.reserve(ca.size() + cb.size());
  parts.insert(parts.end(), ca.begin(), ca.end());
  parts.insert(parts.end(), cb.begin(), cb.end());
  return Predicate::And(std::move(parts));
}

}  // namespace prairie::algebra
