// Predicates: selection and join conditions carried in descriptors.
//
// Predicates are immutable trees shared via PredicateRef. Constants inside
// predicates are scalars (bool/int/real/string); structured Values never
// nest inside predicates, which keeps the two types acyclic. Each node
// caches its hash and its pooled referenced-attribute list on first use;
// both caches are atomic because batch-optimizer threads share the trees.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "algebra/value.h"
#include "common/result.h"

namespace prairie::algebra {

/// Comparison operators usable in predicate leaves.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CmpOpName(CmpOp op);

/// \brief A scalar constant inside a predicate.
struct Scalar {
  std::variant<std::monostate, bool, int64_t, double, std::string> v;

  static Scalar Null() { return Scalar{}; }
  static Scalar Bool(bool b) { return Scalar{b}; }
  static Scalar Int(int64_t i) { return Scalar{i}; }
  static Scalar Real(double d) { return Scalar{d}; }
  static Scalar Str(std::string s) { return Scalar{std::move(s)}; }

  bool operator==(const Scalar& o) const { return v == o.v; }
  uint64_t Hash() const;
  std::string ToString() const;
};

/// \brief One side of a comparison: an attribute, a constant, or a
/// parameter marker.
///
/// Parameter markers (kParam) stand where a literal constant was stripped
/// by the plan cache's canonicalization pass (algebra/param.h). Their Hash
/// deliberately covers the kind ONLY — not the ordinal and not the scalar
/// payload — so Predicate::And's hash-ordered conjunct sort is blind to
/// which constant (and which ordinal) a marker stands for: queries that
/// differ only in literals canonicalize to byte-identical skeletons.
/// Equality does compare the ordinal (rebinding must tell markers apart);
/// the scalar slot may carry a transient payload during canonicalization
/// and is ignored by both Hash and equality.
struct Term {
  enum class Kind { kAttr, kConst, kParam };
  Kind kind = Kind::kConst;
  Attr attr;      ///< Valid when kind == kAttr.
  Scalar scalar;  ///< Valid when kind == kConst (payload for kParam).
  int32_t param = -1;  ///< Ordinal when kind == kParam (-1 = unassigned).

  static Term MakeAttr(Attr a) {
    Term t;
    t.kind = Kind::kAttr;
    t.attr = std::move(a);
    return t;
  }
  static Term MakeConst(Scalar s) {
    Term t;
    t.kind = Kind::kConst;
    t.scalar = std::move(s);
    return t;
  }
  static Term MakeParam(int32_t ordinal, Scalar payload = Scalar::Null()) {
    Term t;
    t.kind = Kind::kParam;
    t.param = ordinal;
    t.scalar = std::move(payload);
    return t;
  }

  bool is_attr() const { return kind == Kind::kAttr; }
  bool is_param() const { return kind == Kind::kParam; }
  bool operator==(const Term& o) const;
  uint64_t Hash() const;
  std::string ToString() const;
};

/// \brief An immutable boolean expression tree over attribute comparisons.
class Predicate {
  struct Token {};  // Keeps construction inside the factories below.

 public:
  enum class Kind { kTrue, kFalse, kCmp, kAnd, kOr, kNot };

  explicit Predicate(Token) {}
  Predicate(const Predicate&) = delete;
  Predicate& operator=(const Predicate&) = delete;

  /// The shared TRUE node; the reference is valid for the program's life.
  static const PredicateRef& True();
  static PredicateRef False();
  static PredicateRef Cmp(CmpOp op, Term left, Term right);
  /// Convenience: attr = constant.
  static PredicateRef EqConst(Attr attr, Scalar constant);
  /// Convenience: attr = attr (an equi-join predicate).
  static PredicateRef EqAttrs(Attr left, Attr right);
  /// Conjunction; flattens nested ANDs and drops TRUE children. An empty
  /// list yields TRUE, a single remaining child is returned as is, and an
  /// AND node's children are never ANDs or TRUE.
  static PredicateRef And(std::vector<PredicateRef> children);
  static PredicateRef Or(std::vector<PredicateRef> children);
  static PredicateRef Not(PredicateRef child);

  Kind kind() const { return kind_; }
  bool is_true() const { return kind_ == Kind::kTrue; }
  bool is_false() const { return kind_ == Kind::kFalse; }

  CmpOp cmp_op() const { return cmp_op_; }
  const Term& left() const { return left_; }
  const Term& right() const { return right_; }
  const std::vector<PredicateRef>& children() const { return children_; }

  /// All attributes referenced anywhere in the tree, as a pooled list
  /// (never null) with its id set, interned on the first call and cached
  /// in the node. A comparison lists its attribute sides left then right
  /// (a repeat once); an AND, OR or NOT lists the sorted union of its
  /// children's lists; TRUE and FALSE list none.
  PooledAttrs ReferencedAttrs() const;

  /// True for a single attr-op-attr comparison with CmpOp::kEq.
  bool IsEquiJoin() const;

  bool Equals(const Predicate& o) const;
  uint64_t Hash() const;
  std::string ToString() const;

 private:
  static std::shared_ptr<Predicate> Make(Kind kind);

  Kind kind_ = Kind::kTrue;
  CmpOp cmp_op_ = CmpOp::kEq;
  Term left_, right_;
  std::vector<PredicateRef> children_;
  // Lazily cached Hash(). Atomic because immutable predicate trees are
  // shared across batch-optimizer threads, which may race to fill the
  // cache; both writers store the same value, so relaxed ordering is fine.
  mutable std::atomic<uint64_t> hash_{0};
  // Lazily interned ReferencedAttrs(). The pool owns the list, so racing
  // threads publish the same pointer and a loser has nothing to free.
  mutable std::atomic<PooledAttrs> referenced_{nullptr};
};

/// The top-level conjuncts of `p`, borrowed from it: an AND's own children,
/// nothing for TRUE (or a null ref), and `p` itself for any other
/// predicate. Nothing is allocated; the span points into `*p` or at `p`,
/// so it must not outlive `p` or a write to the ref it was read from.
std::span<const PredicateRef> Conjuncts(const PredicateRef& p);
std::span<const PredicateRef> Conjuncts(PredicateRef&&) = delete;

/// Structural equality that treats null refs as TRUE.
bool PredEquals(const PredicateRef& a, const PredicateRef& b);

/// Conjunction of two possibly-null predicate refs.
PredicateRef PredAnd(const PredicateRef& a, const PredicateRef& b);

}  // namespace prairie::algebra
