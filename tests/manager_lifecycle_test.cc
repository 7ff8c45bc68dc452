// The lifecycle contract util/manager_core.h defines once, checked on
// both managers: counted root refs, the two misuse deaths, and a GC mark
// whose outcome does not depend on an attached pool.

#include <memory>
#include <utility>
#include <vector>

#include "exec/task_pool.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/random.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> vars(n);
  for (int i = 0; i < n; ++i) vars[i] = i;
  return vars;
}

// How to build each manager over variables 0..n-1 and compile a function
// into it.
template <class M>
struct Traits;

template <>
struct Traits<ObddManager> {
  static std::unique_ptr<ObddManager> Make(int n) {
    return std::make_unique<ObddManager>(Iota(n));
  }
  static int Compile(ObddManager* m, const BoolFunc& f) {
    return CompileFuncToObdd(m, f);
  }
};

template <>
struct Traits<SddManager> {
  static std::unique_ptr<SddManager> Make(int n) {
    return std::make_unique<SddManager>(Vtree::Balanced(Iota(n)));
  }
  static int Compile(SddManager* m, const BoolFunc& f) {
    return CompileFuncToSdd(m, f);
  }
};

template <class M>
class ManagerLifecycleTest : public ::testing::Test {};

using Managers = ::testing::Types<ObddManager, SddManager>;
TYPED_TEST_SUITE(ManagerLifecycleTest, Managers);

TYPED_TEST(ManagerLifecycleTest, RootRefsAreCounted) {
  auto manager = Traits<TypeParam>::Make(4);
  const auto root = manager->And(manager->Literal(0, true),
                                 manager->Literal(1, true));
  manager->AddRootRef(root);
  manager->AddRootRef(root);
  manager->ReleaseRootRef(root);
  manager->GarbageCollect();  // one ref left: must survive
  EXPECT_EQ(manager->And(manager->Literal(0, true), manager->Literal(1, true)),
            root);
  manager->ReleaseRootRef(root);
}

TYPED_TEST(ManagerLifecycleTest, UnmatchedReleaseDies) {
  auto manager = Traits<TypeParam>::Make(4);
  const auto root = manager->And(manager->Literal(0, true),
                                 manager->Literal(1, true));
  EXPECT_DEATH(manager->ReleaseRootRef(root),
               "ReleaseRootRef without a matching AddRootRef");
}

TYPED_TEST(ManagerLifecycleTest, RootRefOnCollectedNodeDies) {
  auto manager = Traits<TypeParam>::Make(4);
  const auto root = manager->And(manager->Literal(0, true),
                                 manager->Literal(1, true));
  ASSERT_GT(manager->GarbageCollect(), 0u);  // nothing pins `root`
  EXPECT_DEATH(manager->AddRootRef(root), "AddRootRef on a freed node");
}

// The parallel mark claims nodes concurrently, one DFS per root; it must
// mark exactly what the sequential mark does.
TYPED_TEST(ManagerLifecycleTest, PooledMarkMatchesSequentialMark) {
  const int kVars = 8;
  const int kFuncs = 24;
  Rng rng(20261016);
  std::vector<BoolFunc> funcs;
  for (int i = 0; i < kFuncs; ++i) {
    funcs.push_back(BoolFunc::Random(Iota(kVars), &rng));
  }
  exec::TaskPool pool(4);
  auto pooled = Traits<TypeParam>::Make(kVars);
  auto sequential = Traits<TypeParam>::Make(kVars);
  std::vector<std::pair<int, int>> pinned;  // (function, root id)
  for (int i = 0; i < kFuncs; ++i) {
    const int a = Traits<TypeParam>::Compile(pooled.get(), funcs[i]);
    const int b = Traits<TypeParam>::Compile(sequential.get(), funcs[i]);
    ASSERT_EQ(a, b);  // same sequence, same ids
    if (i % 3 != 0) continue;
    pooled->AddRootRef(a);
    sequential->AddRootRef(b);
    pinned.emplace_back(i, a);
  }
  pooled->AttachExecutor(&pool);
  const size_t reclaimed_pooled = pooled->GarbageCollect();
  const size_t reclaimed_sequential = sequential->GarbageCollect();
  EXPECT_GT(reclaimed_sequential, 0u);
  EXPECT_EQ(reclaimed_pooled, reclaimed_sequential);
  EXPECT_EQ(pooled->NumLiveNodes(), sequential->NumLiveNodes());
  EXPECT_TRUE(pooled->Validate().ok());
  // Detach so recompiling runs the same sequential path on both sides.
  pooled->AttachExecutor(nullptr);
  for (const auto& [i, root] : pinned) {
    EXPECT_EQ(Traits<TypeParam>::Compile(pooled.get(), funcs[i]), root);
    EXPECT_EQ(Traits<TypeParam>::Compile(sequential.get(), funcs[i]), root);
  }
}

}  // namespace
}  // namespace ctsdd
