// Helper functions callable from rule actions (paper §2.3: "cardinality",
// "union", "is_associative", ...).
//
// Helpers are registered by name with a fixed arity (or variadic) and
// receive evaluated arguments — scalars or whole descriptors. Optimizer
// definitions register their own domain helpers; WithBuiltins() provides
// the generic numeric ones every rule set gets.

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/action.h"

namespace prairie::core {

/// A helper's body. `args` is a borrowed view of the evaluated arguments;
/// it and any value it borrows live only for the call.
using HelperFn = std::function<common::Result<algebra::Value>(
    std::span<const EvalResult> args, const EvalContext& ctx)>;

/// \brief Name → function table for rule-action helper calls.
class HelperRegistry {
 public:
  /// Registers a helper. `arity` of -1 accepts any argument count.
  common::Status Register(std::string name, int arity, HelperFn fn);

  bool Contains(const std::string& name) const {
    return helpers_.count(name) > 0;
  }

  /// Invokes `name` with pre-evaluated arguments.
  common::Result<algebra::Value> Invoke(const std::string& name,
                                        std::span<const EvalResult> args,
                                        const EvalContext& ctx) const;

  std::vector<std::string> Names() const;

  /// A fresh registry pre-populated with the generic numeric helpers:
  /// log (natural), log2, ceil, floor, abs, min, max, pow.
  static std::shared_ptr<HelperRegistry> WithBuiltins();

 private:
  struct Helper {
    int arity;
    HelperFn fn;
  };
  std::unordered_map<std::string, Helper> helpers_;
};

}  // namespace prairie::core
