// Heap-allocation budget of one rule firing.
//
// This binary replaces the global operator new with a counting one, so it
// is its own test executable. It runs one optimization of the paper's Q7
// at 2 joins (seed 1) in each deployment — P2V-interpreted, P2V-emitted
// C++ and the hand-coded Volcano rule set — after one warm-up run of the
// same query (the warm-up fills process-wide pools such as the interned
// string table), and bounds the allocations per transformation-rule
// attempt. The transformation closure dominates the search, so the ratio
// tracks what one binding costs: building it, running the condition and
// action, and interning the rewritten expression.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/volcano_hand.h"
#include "p2v/translator.h"
#include "volcano/engine.h"
#include "workload/workload.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

// Not inlined: a free() inlined next to a new-expression reads as a
// mismatched deallocation to the compiler's -Wmismatched-new-delete.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }

// Factory defined by the generated translation unit.
namespace prairie_generated {
prairie::common::Result<std::shared_ptr<prairie::volcano::RuleSet>>
BuildOodbEmitted(std::shared_ptr<prairie::core::HelperRegistry>);
}  // namespace prairie_generated

namespace prairie {
namespace {

/// Allocations per trans attempt allowed on Q7 at 2 joins in every
/// deployment (ROADMAP item 2 tightens it further).
constexpr double kMaxAllocsPerAttempt = 12.0;

struct Measurement {
  double allocs_per_attempt = 0;
  uint64_t trans_attempts = 0;
  double cost = 0;
};

/// One warm-up optimization, then one counted optimization (optimizer
/// construction included) with a fresh optimizer.
Measurement Measure(const volcano::RuleSet& rules) {
  Measurement out;
  const workload::QuerySpec spec = workload::PaperQuery(7, 2, 1);
  auto w = workload::MakeWorkload(*rules.algebra, spec);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  if (!w.ok()) return out;
  {
    volcano::Optimizer warm(&rules, &w->catalog);
    auto plan = warm.Optimize(*w->query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  volcano::Optimizer opt(&rules, &w->catalog);
  auto plan = opt.Optimize(*w->query);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return out;
  out.trans_attempts = opt.stats().trans_attempts;
  out.cost = plan->cost;
  if (out.trans_attempts > 0) {
    out.allocs_per_attempt = static_cast<double>(after - before) /
                             static_cast<double>(out.trans_attempts);
  }
  return out;
}

TEST(AllocBudget, TransAttemptsOnQ7At2JoinsInEveryDeployment) {
  auto prairie_rules = opt::BuildOodbPrairie();
  ASSERT_TRUE(prairie_rules.ok()) << prairie_rules.status().ToString();
  auto interpreted = p2v::Translate(*prairie_rules, nullptr);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  auto emitted = prairie_generated::BuildOodbEmitted(opt::StandardHelpers());
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  auto hand = opt::BuildOodbVolcano();
  ASSERT_TRUE(hand.ok()) << hand.status().ToString();

  const struct {
    const char* name;
    const volcano::RuleSet* rules;
  } deployments[] = {{"interpreted", interpreted->get()},
                     {"emitted", emitted->get()},
                     {"hand-coded", hand->get()}};
  double first_cost = -1;
  for (const auto& d : deployments) {
    const Measurement m = Measure(*d.rules);
    std::printf("%-11s %8llu trans attempts, %5.2f allocations each\n",
                d.name, static_cast<unsigned long long>(m.trans_attempts),
                m.allocs_per_attempt);
    ASSERT_GT(m.trans_attempts, 0u) << d.name;
    EXPECT_LE(m.allocs_per_attempt, kMaxAllocsPerAttempt) << d.name;
    if (first_cost < 0) first_cost = m.cost;
    EXPECT_NEAR(m.cost, first_cost, 1e-9 * std::max(1.0, first_cost))
        << d.name;
  }
}

}  // namespace
}  // namespace prairie
