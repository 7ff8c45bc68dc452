// The lifecycle contract util/manager_core.h defines once, checked on
// both managers: the memory-accounting check at the quiescent points
// every budgeted compile passes.

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "obdd/obdd.h"
#include "sdd/sdd.h"
#include "util/budget.h"
#include "util/mem_governor.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> vars(n);
  for (int i = 0; i < n; ++i) vars[i] = i;
  return vars;
}

// How to build each manager over variables 0..n-1.
template <class M>
struct Traits;

template <>
struct Traits<ObddManager> {
  static std::unique_ptr<ObddManager> Make(int n) {
    return std::make_unique<ObddManager>(Iota(n));
  }
};

template <>
struct Traits<SddManager> {
  static std::unique_ptr<SddManager> Make(int n) {
    return std::make_unique<SddManager>(Vtree::Balanced(Iota(n)));
  }
};

template <class M>
class ManagerLifecycleTest : public ::testing::Test {};

using Managers = ::testing::Types<ObddManager, SddManager>;
TYPED_TEST_SUITE(ManagerLifecycleTest, Managers);

// A byte charged to the account that no manager structure owns is drift:
// the debug-build check at AttachBudget (which DetachBudget runs too)
// must catch it before the next compile starts.
TYPED_TEST(ManagerLifecycleTest, AccountingDriftDiesAtAttachBudget) {
#ifdef NDEBUG
  GTEST_SKIP() << "the accounting check is debug-only";
#else
  MemAccount account;  // outlives the manager, which releases into it
  auto manager = Traits<TypeParam>::Make(4);
  manager->AttachMemAccount(&account);
  manager->And(manager->Literal(0, true), manager->Literal(1, true));
  WorkBudget budget(0);
  manager->AttachBudget(&budget);  // exact so far: no death
  manager->DetachBudget();
  account.Charge(MemLayer::kCache, 1);
  EXPECT_DEATH(manager->AttachBudget(&budget),
               "AttachBudget: memory accounting drift");
#endif
}

}  // namespace
}  // namespace ctsdd
