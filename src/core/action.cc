#include "core/action.h"

#include <array>
#include <cmath>
#include <functional>
#include <span>

#include "common/strings.h"
#include "core/helpers.h"

namespace prairie::core {

using algebra::Value;
using algebra::ValueType;
using common::Result;
using common::Status;

std::string_view BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kEq:
      return "==";
    case BinOp::kNe:
      return "!=";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "&&";
    case BinOp::kOr:
      return "||";
  }
  return "?";
}

ActionExprPtr ActionExpr::Const(Value v) {
  auto e = std::shared_ptr<ActionExpr>(new ActionExpr());
  e->kind_ = Kind::kConst;
  e->constant_ = std::move(v);
  return e;
}

ActionExprPtr ActionExpr::Prop(int desc_slot, std::string property,
                               algebra::PropertyId property_id) {
  auto e = std::shared_ptr<ActionExpr>(new ActionExpr());
  e->kind_ = Kind::kProp;
  e->desc_slot_ = desc_slot;
  e->property_ = std::move(property);
  e->property_id_ = property_id;
  return e;
}

ActionExprPtr ActionExpr::Desc(int desc_slot) {
  auto e = std::shared_ptr<ActionExpr>(new ActionExpr());
  e->kind_ = Kind::kDesc;
  e->desc_slot_ = desc_slot;
  return e;
}

ActionExprPtr ActionExpr::Call(std::string fn,
                               std::vector<ActionExprPtr> args) {
  auto e = std::shared_ptr<ActionExpr>(new ActionExpr());
  e->kind_ = Kind::kCall;
  e->fn_ = std::move(fn);
  e->args_ = std::move(args);
  return e;
}

ActionExprPtr ActionExpr::Binary(BinOp op, ActionExprPtr l, ActionExprPtr r) {
  auto e = std::shared_ptr<ActionExpr>(new ActionExpr());
  e->kind_ = Kind::kBinary;
  e->bin_op_ = op;
  e->args_.push_back(std::move(l));
  e->args_.push_back(std::move(r));
  return e;
}

ActionExprPtr ActionExpr::Unary(UnOp op, ActionExprPtr inner) {
  auto e = std::shared_ptr<ActionExpr>(new ActionExpr());
  e->kind_ = Kind::kUnary;
  e->un_op_ = op;
  e->args_.push_back(std::move(inner));
  return e;
}

void ActionExpr::Visit(
    const std::function<void(const ActionExpr&)>& visit) const {
  visit(*this);
  for (const ActionExprPtr& a : args_) a->Visit(visit);
}

std::string ActionExpr::ToString() const {
  switch (kind_) {
    case Kind::kConst:
      return constant_.ToString();
    case Kind::kProp:
      return "D" + std::to_string(desc_slot_ + 1) + "." + property_;
    case Kind::kDesc:
      return "D" + std::to_string(desc_slot_ + 1);
    case Kind::kCall: {
      std::vector<std::string> parts;
      parts.reserve(args_.size());
      for (const ActionExprPtr& a : args_) parts.push_back(a->ToString());
      return fn_ + "(" + common::Join(parts, ", ") + ")";
    }
    case Kind::kBinary:
      return "(" + args_[0]->ToString() + " " +
             std::string(BinOpName(bin_op_)) + " " + args_[1]->ToString() +
             ")";
    case Kind::kUnary:
      return (un_op_ == UnOp::kNot ? "!(" : "-(") + args_[0]->ToString() +
             ")";
  }
  return "?";
}

std::string ActionStmt::ToString() const {
  std::string lhs = "D" + std::to_string(target_slot + 1);
  if (!target_prop.empty()) lhs += "." + target_prop;
  return lhs + " = " + (value == nullptr ? "?" : value->ToString()) + ";";
}

std::string BlockToString(const std::vector<ActionStmt>& stmts, int indent) {
  std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = pad + "{{\n";
  for (const ActionStmt& s : stmts) {
    out += pad + "  " + s.ToString() + "\n";
  }
  out += pad + "}}";
  return out;
}

namespace {

Result<Value> EvalBinary(BinOp op, const EvalResult& l, const EvalResult& r) {
  if (l.is_desc() || r.is_desc()) {
    return Status::TypeError("whole descriptors cannot appear in '" +
                             std::string(BinOpName(op)) + "' expressions");
  }
  const Value& a = l.val();
  const Value& b = r.val();
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv: {
      // Attribute lists support '+' as set union for convenience.
      if (op == BinOp::kAdd && a.type() == ValueType::kAttrs &&
          b.type() == ValueType::kAttrs) {
        return algebra::UnionAttrs(a, b);
      }
      PRAIRIE_ASSIGN_OR_RETURN(double x, a.ToReal());
      PRAIRIE_ASSIGN_OR_RETURN(double y, b.ToReal());
      double v = 0;
      switch (op) {
        case BinOp::kAdd:
          v = x + y;
          break;
        case BinOp::kSub:
          v = x - y;
          break;
        case BinOp::kMul:
          v = x * y;
          break;
        case BinOp::kDiv:
          if (y == 0) return Status::InvalidArgument("division by zero");
          v = x / y;
          break;
        default:
          break;
      }
      // Integer-preserving arithmetic when both operands were ints and the
      // result is integral keeps num_records-style properties typed int.
      if (a.type() == ValueType::kInt && b.type() == ValueType::kInt &&
          op != BinOp::kDiv && std::floor(v) == v &&
          std::fabs(v) < 9.0e18) {
        return Value::Int(static_cast<int64_t>(v));
      }
      return Value::Real(v);
    }
    case BinOp::kEq:
    case BinOp::kNe: {
      bool eq;
      // Numeric cross-type comparison coerces; everything else compares by
      // value identity.
      if ((a.type() == ValueType::kInt || a.type() == ValueType::kReal) &&
          (b.type() == ValueType::kInt || b.type() == ValueType::kReal)) {
        eq = a.ToReal().ValueOrDie() == b.ToReal().ValueOrDie();
      } else {
        eq = a == b;
      }
      return Value::Bool(op == BinOp::kEq ? eq : !eq);
    }
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      PRAIRIE_ASSIGN_OR_RETURN(double x, a.ToReal());
      PRAIRIE_ASSIGN_OR_RETURN(double y, b.ToReal());
      bool v = false;
      switch (op) {
        case BinOp::kLt:
          v = x < y;
          break;
        case BinOp::kLe:
          v = x <= y;
          break;
        case BinOp::kGt:
          v = x > y;
          break;
        case BinOp::kGe:
          v = x >= y;
          break;
        default:
          break;
      }
      return Value::Bool(v);
    }
    case BinOp::kAnd:
    case BinOp::kOr: {
      PRAIRIE_ASSIGN_OR_RETURN(bool x, a.ToBool());
      PRAIRIE_ASSIGN_OR_RETURN(bool y, b.ToBool());
      return Value::Bool(op == BinOp::kAnd ? (x && y) : (x || y));
    }
  }
  return Status::Internal("unhandled binary operator");
}

}  // namespace

Result<EvalResult> Eval(const ActionExpr& expr, const EvalContext& ctx) {
  switch (expr.kind()) {
    case ActionExpr::Kind::kConst:
      return EvalResult{expr.constant(), nullptr, nullptr};
    case ActionExpr::Kind::kProp: {
      const algebra::Descriptor* d = ctx.slot(expr.desc_slot());
      if (d == nullptr || !d->valid()) {
        return Status::RuleError(
            "descriptor D" + std::to_string(expr.desc_slot() + 1) +
            " is not bound in this phase");
      }
      if (expr.property_id() >= 0) {
        EvalResult out;
        out.borrowed = &d->Get(expr.property_id());
        return out;
      }
      PRAIRIE_ASSIGN_OR_RETURN(Value v, d->Get(expr.property()));
      EvalResult out;
      out.value = std::move(v);
      return out;
    }
    case ActionExpr::Kind::kDesc: {
      const algebra::Descriptor* d = ctx.slot(expr.desc_slot());
      if (d == nullptr || !d->valid()) {
        return Status::RuleError(
            "descriptor D" + std::to_string(expr.desc_slot() + 1) +
            " is not bound in this phase");
      }
      EvalResult out;
      out.desc = d;
      return out;
    }
    case ActionExpr::Kind::kCall: {
      if (ctx.helpers == nullptr) {
        return Status::RuleError("no helper registry in evaluation context");
      }
      // Arguments evaluate into a stack array; only a call with more
      // arguments than it holds (a variadic min/max) uses the heap.
      constexpr size_t kInlineArgs = 6;
      const size_t n = expr.args().size();
      std::array<EvalResult, kInlineArgs> inline_args;
      std::vector<EvalResult> heap_args;
      EvalResult* args = inline_args.data();
      if (n > kInlineArgs) {
        heap_args.resize(n);
        args = heap_args.data();
      }
      for (size_t i = 0; i < n; ++i) {
        PRAIRIE_ASSIGN_OR_RETURN(args[i], Eval(*expr.args()[i], ctx));
      }
      PRAIRIE_ASSIGN_OR_RETURN(
          Value v, ctx.helpers->Invoke(
                       expr.fn(), std::span<const EvalResult>(args, n), ctx));
      return EvalResult{std::move(v), nullptr, nullptr};
    }
    case ActionExpr::Kind::kBinary: {
      // Short-circuit && and ||.
      if (expr.bin_op() == BinOp::kAnd || expr.bin_op() == BinOp::kOr) {
        PRAIRIE_ASSIGN_OR_RETURN(EvalResult l, Eval(*expr.left(), ctx));
        if (l.is_desc()) {
          return Status::TypeError("descriptor used as boolean");
        }
        PRAIRIE_ASSIGN_OR_RETURN(bool lv, l.val().ToBool());
        if (expr.bin_op() == BinOp::kAnd && !lv) {
          return EvalResult{Value::Bool(false), nullptr, nullptr};
        }
        if (expr.bin_op() == BinOp::kOr && lv) {
          return EvalResult{Value::Bool(true), nullptr, nullptr};
        }
        PRAIRIE_ASSIGN_OR_RETURN(EvalResult r, Eval(*expr.right(), ctx));
        if (r.is_desc()) {
          return Status::TypeError("descriptor used as boolean");
        }
        PRAIRIE_ASSIGN_OR_RETURN(bool rv, r.val().ToBool());
        return EvalResult{Value::Bool(rv), nullptr, nullptr};
      }
      PRAIRIE_ASSIGN_OR_RETURN(EvalResult l, Eval(*expr.left(), ctx));
      PRAIRIE_ASSIGN_OR_RETURN(EvalResult r, Eval(*expr.right(), ctx));
      PRAIRIE_ASSIGN_OR_RETURN(Value v, EvalBinary(expr.bin_op(), l, r));
      return EvalResult{std::move(v), nullptr, nullptr};
    }
    case ActionExpr::Kind::kUnary: {
      PRAIRIE_ASSIGN_OR_RETURN(EvalResult inner, Eval(*expr.args()[0], ctx));
      if (inner.is_desc()) {
        return Status::TypeError("descriptor used in unary expression");
      }
      if (expr.un_op() == UnOp::kNot) {
        PRAIRIE_ASSIGN_OR_RETURN(bool b, inner.val().ToBool());
        return EvalResult{Value::Bool(!b), nullptr, nullptr};
      }
      PRAIRIE_ASSIGN_OR_RETURN(double x, inner.val().ToReal());
      if (inner.val().type() == ValueType::kInt) {
        return EvalResult{Value::Int(-inner.val().AsInt()), nullptr, nullptr};
      }
      return EvalResult{Value::Real(-x), nullptr, nullptr};
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalTest(const ActionExprPtr& test, const EvalContext& ctx) {
  if (test == nullptr) return true;
  PRAIRIE_ASSIGN_OR_RETURN(EvalResult r, Eval(*test, ctx));
  if (r.is_desc()) return Status::TypeError("descriptor used as rule test");
  return r.val().ToBool();
}

Status Execute(const ActionStmt& stmt, const EvalContext& ctx) {
  algebra::Descriptor* target = ctx.slot(stmt.target_slot);
  if (target == nullptr) {
    return Status::RuleError("assignment target D" +
                             std::to_string(stmt.target_slot + 1) +
                             " is not bound in this phase");
  }
  PRAIRIE_ASSIGN_OR_RETURN(EvalResult r, Eval(*stmt.value, ctx));
  if (stmt.assigns_whole_descriptor()) {
    if (!r.is_desc()) {
      return Status::TypeError(
          "whole-descriptor assignment requires a descriptor on the right "
          "(in '" +
          stmt.ToString() + "')");
    }
    *target = *r.desc;
    return Status::OK();
  }
  if (r.is_desc()) {
    return Status::TypeError("cannot assign a whole descriptor to property '" +
                             stmt.target_prop + "'");
  }
  Value v = r.borrowed != nullptr ? *r.borrowed : std::move(r.value);
  if (stmt.target_prop_id >= 0) {
    Status st = target->SetChecked(stmt.target_prop_id, std::move(v));
    if (!st.ok()) return st.WithContext("in '" + stmt.ToString() + "'");
    return st;
  }
  return target->Set(stmt.target_prop, std::move(v))
      .WithContext("in '" + stmt.ToString() + "'");
}

Status ExecuteAll(const std::vector<ActionStmt>& stmts,
                  const EvalContext& ctx) {
  for (const ActionStmt& s : stmts) {
    PRAIRIE_RETURN_NOT_OK(Execute(s, ctx));
  }
  return Status::OK();
}

}  // namespace prairie::core
