// Runtime support for P2V-emitted C++ rule code (see emit_cpp.h).
//
// Emitted rule actions are straight-line C++ over these small inline
// operations, which mirror the action-language semantics exactly
// (core/action.cc's evaluator is the reference). Errors don't unwind the
// emitted expression tree; they latch into the EmitCtx and are returned
// at the section boundary — that keeps generated code linear, the way a
// code generator writes it.

#pragma once

#include <cmath>
#include <initializer_list>
#include <span>

#include "core/helpers.h"
#include "volcano/rules.h"

namespace prairie::p2v::emitted {

using algebra::Value;
using algebra::ValueType;

/// \brief Per-invocation context of one emitted rule section.
struct EmitCtx {
  volcano::BindingView& bv;
  const core::HelperRegistry* helpers;
  common::Status st;

  bool failed() const { return !st.ok(); }
  void Fail(common::Status s) {
    if (st.ok()) st = std::move(s);
  }
};

/// Reads Dk.prop (borrowed).
inline const Value& P(EmitCtx& c, int slot, algebra::PropertyId id) {
  return c.bv.slot(slot).Get(id);
}

/// Writes Dk.prop with the declaration's type check.
inline void Set(EmitCtx& c, int slot, algebra::PropertyId id, Value v) {
  if (c.failed()) return;
  common::Status st = c.bv.slot(slot).SetChecked(id, std::move(v));
  if (!st.ok()) c.Fail(std::move(st));
}

/// Whole-descriptor copy Dk = Dj.
inline void Copy(EmitCtx& c, int to, int from) {
  if (c.failed()) return;
  c.bv.slot(to) = c.bv.slot(from);
}

/// Freezes the finished descriptor in `slot` into the active optimization's
/// store and returns its interned id (kInvalidDescriptorId when the binding
/// carries no store, e.g. in isolated unit tests).
inline algebra::DescriptorId Freeze(EmitCtx& c, int slot) {
  if (c.failed() || c.bv.store == nullptr) {
    return algebra::kInvalidDescriptorId;
  }
  return c.bv.store->Intern(c.bv.slot(slot));
}

inline double AsReal(EmitCtx& c, const Value& v) {
  auto r = v.ToReal();
  if (!r.ok()) {
    c.Fail(r.status());
    return 0;
  }
  return *r;
}

inline bool AsBool(EmitCtx& c, const Value& v) {
  auto r = v.ToBool();
  if (!r.ok()) {
    c.Fail(r.status());
    return false;
  }
  return *r;
}

// Arithmetic mirrors core/action.cc EvalBinary: '+' unions attribute
// lists; int op int stays int when exact; division by zero fails.
inline Value Add(EmitCtx& c, const Value& a, const Value& b) {
  if (c.failed()) return Value();
  if (a.type() == ValueType::kAttrs && b.type() == ValueType::kAttrs) {
    return algebra::UnionAttrs(a, b);
  }
  double v = AsReal(c, a) + AsReal(c, b);
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt &&
      std::floor(v) == v && std::fabs(v) < 9.0e18) {
    return Value::Int(static_cast<int64_t>(v));
  }
  return Value::Real(v);
}

inline Value Sub(EmitCtx& c, const Value& a, const Value& b) {
  if (c.failed()) return Value();
  double v = AsReal(c, a) - AsReal(c, b);
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt &&
      std::floor(v) == v && std::fabs(v) < 9.0e18) {
    return Value::Int(static_cast<int64_t>(v));
  }
  return Value::Real(v);
}

inline Value Mul(EmitCtx& c, const Value& a, const Value& b) {
  if (c.failed()) return Value();
  double v = AsReal(c, a) * AsReal(c, b);
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt &&
      std::floor(v) == v && std::fabs(v) < 9.0e18) {
    return Value::Int(static_cast<int64_t>(v));
  }
  return Value::Real(v);
}

inline Value Div(EmitCtx& c, const Value& a, const Value& b) {
  if (c.failed()) return Value();
  double y = AsReal(c, b);
  if (y == 0) {
    c.Fail(common::Status::InvalidArgument("division by zero"));
    return Value();
  }
  return Value::Real(AsReal(c, a) / y);
}

inline Value Eq(EmitCtx& c, const Value& a, const Value& b, bool negate) {
  if (c.failed()) return Value();
  bool eq;
  bool a_num = a.type() == ValueType::kInt || a.type() == ValueType::kReal;
  bool b_num = b.type() == ValueType::kInt || b.type() == ValueType::kReal;
  if (a_num && b_num) {
    eq = AsReal(c, a) == AsReal(c, b);
  } else {
    eq = a == b;
  }
  return Value::Bool(negate ? !eq : eq);
}

inline Value Cmp(EmitCtx& c, const Value& a, const Value& b, int op) {
  // op: 0 '<', 1 '<=', 2 '>', 3 '>='.
  if (c.failed()) return Value();
  double x = AsReal(c, a);
  double y = AsReal(c, b);
  bool v = op == 0 ? x < y : op == 1 ? x <= y : op == 2 ? x > y : x >= y;
  return Value::Bool(v);
}

inline Value Not(EmitCtx& c, const Value& a) {
  if (c.failed()) return Value();
  return Value::Bool(!AsBool(c, a));
}

inline Value Neg(EmitCtx& c, const Value& a) {
  if (c.failed()) return Value();
  if (a.type() == ValueType::kInt) return Value::Int(-a.AsInt());
  return Value::Real(-AsReal(c, a));
}

/// Helper-call argument: a scalar value.
inline core::EvalResult Arg(const Value& v) {
  core::EvalResult r;
  r.value = v;
  return r;
}

/// Helper-call argument: a whole descriptor Dk.
inline core::EvalResult DescArg(EmitCtx& c, int slot) {
  core::EvalResult r;
  r.desc = &c.bv.slot(slot);
  return r;
}

/// Unboxes a natively-called helper's result, latching errors into the
/// context (used when the emitter binds helper names to compiled support
/// functions — the paper's architecture, where support C code is linked
/// directly with the generated optimizer).
inline Value Unwrap(EmitCtx& c, common::Result<Value> r) {
  if (c.failed()) return Value();
  if (!r.ok()) {
    c.Fail(r.status());
    return Value();
  }
  return std::move(r).ValueUnsafe();
}

/// Invokes a user helper function through the registry (fallback for
/// helpers with no native binding). The arguments stay in the caller's
/// initializer list; the helper sees a span over it.
inline Value Call(EmitCtx& c, const char* name,
                  std::initializer_list<core::EvalResult> args) {
  if (c.failed()) return Value();
  if (c.helpers == nullptr) {
    c.Fail(common::Status::RuleError("no helper registry"));
    return Value();
  }
  core::EvalContext ctx;
  ctx.contiguous = c.bv.slots.data();
  ctx.contiguous_count = static_cast<int>(c.bv.slots.size());
  ctx.helpers = c.helpers;
  ctx.catalog = c.bv.catalog;
  ctx.store = c.bv.store;
  auto r = c.helpers->Invoke(
      name, std::span<const core::EvalResult>(args.begin(), args.size()),
      ctx);
  if (!r.ok()) {
    c.Fail(r.status());
    return Value();
  }
  return *r;
}

}  // namespace prairie::p2v::emitted
