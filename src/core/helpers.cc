#include "core/helpers.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace prairie::core {

using algebra::Value;
using common::Result;
using common::Status;

Status HelperRegistry::Register(std::string name, int arity, HelperFn fn) {
  if (helpers_.count(name) > 0) {
    return Status::AlreadyExists("helper '" + name + "' already registered");
  }
  helpers_.emplace(std::move(name), Helper{arity, std::move(fn)});
  return Status::OK();
}

Result<Value> HelperRegistry::Invoke(const std::string& name,
                                     std::span<const EvalResult> args,
                                     const EvalContext& ctx) const {
  auto it = helpers_.find(name);
  if (it == helpers_.end()) {
    return Status::NotFound("unknown helper function '" + name + "'");
  }
  const Helper& h = it->second;
  if (h.arity >= 0 && static_cast<int>(args.size()) != h.arity) {
    return Status::InvalidArgument(common::StringPrintf(
        "helper '%s' expects %d argument(s), got %d", name.c_str(), h.arity,
        static_cast<int>(args.size())));
  }
  return h.fn(args, ctx);
}

std::vector<std::string> HelperRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(helpers_.size());
  for (const auto& [name, helper] : helpers_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

Result<double> NumericArg(std::span<const EvalResult> args, size_t i,
                          const char* fn) {
  if (i >= args.size() || args[i].is_desc()) {
    return Status::TypeError(std::string(fn) +
                             ": expected a numeric argument");
  }
  return args[i].val().ToReal();
}

Status RegisterUnaryMath(HelperRegistry* reg, const std::string& name,
                         double (*fn)(double)) {
  return reg->Register(
      name, 1,
      [name, fn](std::span<const EvalResult> args,
                 const EvalContext&) -> Result<Value> {
        PRAIRIE_ASSIGN_OR_RETURN(double x, NumericArg(args, 0, name.c_str()));
        return Value::Real(fn(x));
      });
}

}  // namespace

std::shared_ptr<HelperRegistry> HelperRegistry::WithBuiltins() {
  auto reg = std::make_shared<HelperRegistry>();
  // log(x) follows the paper's Merge_sort cost formula (natural log); a
  // non-positive argument yields 0 so degenerate cardinalities stay finite.
  Status st = reg->Register(
      "log", 1,
      [](std::span<const EvalResult> args,
         const EvalContext&) -> Result<Value> {
        PRAIRIE_ASSIGN_OR_RETURN(double x, NumericArg(args, 0, "log"));
        return Value::Real(x <= 1.0 ? 0.0 : std::log(x));
      });
  st = RegisterUnaryMath(reg.get(), "log2",
                         +[](double x) { return x <= 1.0 ? 0.0 : std::log2(x); });
  st = RegisterUnaryMath(reg.get(), "ceil", +[](double x) { return std::ceil(x); });
  st = RegisterUnaryMath(reg.get(), "floor",
                         +[](double x) { return std::floor(x); });
  st = RegisterUnaryMath(reg.get(), "abs", +[](double x) { return std::fabs(x); });
  st = reg->Register(
      "min", -1,
      [](std::span<const EvalResult> args,
         const EvalContext&) -> Result<Value> {
        if (args.empty()) return Status::InvalidArgument("min: no arguments");
        double best = 0;
        for (size_t i = 0; i < args.size(); ++i) {
          PRAIRIE_ASSIGN_OR_RETURN(double x, NumericArg(args, i, "min"));
          best = (i == 0) ? x : std::min(best, x);
        }
        return Value::Real(best);
      });
  st = reg->Register(
      "max", -1,
      [](std::span<const EvalResult> args,
         const EvalContext&) -> Result<Value> {
        if (args.empty()) return Status::InvalidArgument("max: no arguments");
        double best = 0;
        for (size_t i = 0; i < args.size(); ++i) {
          PRAIRIE_ASSIGN_OR_RETURN(double x, NumericArg(args, i, "max"));
          best = (i == 0) ? x : std::max(best, x);
        }
        return Value::Real(best);
      });
  st = reg->Register(
      "pow", 2,
      [](std::span<const EvalResult> args,
         const EvalContext&) -> Result<Value> {
        PRAIRIE_ASSIGN_OR_RETURN(double b, NumericArg(args, 0, "pow"));
        PRAIRIE_ASSIGN_OR_RETURN(double e, NumericArg(args, 1, "pow"));
        return Value::Real(std::pow(b, e));
      });
  (void)st;
  return reg;
}

}  // namespace prairie::core
