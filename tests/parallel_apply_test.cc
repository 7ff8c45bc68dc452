// Determinism and correctness with an exec pool attached. The only fork
// is the SDD semantic compiler's per-cofactor-class fork, where workers
// plan partitions and the owning thread builds every node. Its results
// must be POINTER-IDENTICAL to sequential ones — not merely equivalent:
// within one manager because canonicity hash-conses every node to one
// id, and in a fresh manager because the owner builds in the same order
// with or without the pool. The suite drives randomized compiles in both
// orders (sequential-then-parallel and parallel-then-sequential),
// cross-checks semantics against BoolFunc ground truth, and validates
// SDD invariants on every parallel-built root. Apply operations and the
// apply-route circuit compilers must ignore an attached pool: same ids,
// zero pool tasks.

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "exec/task_pool.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "circuit/eval.h"
#include "circuit/families.h"
#include "compile/isa.h"
#include "vtree/from_decomposition.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/random.h"
#include "vtree/vtree.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

// --- SDD -------------------------------------------------------------------

std::vector<Vtree> TestVtrees(int n, Rng* rng) {
  std::vector<Vtree> out;
  out.push_back(Vtree::Balanced(Iota(n)));
  out.push_back(Vtree::RightLinear(Iota(n)));
  out.push_back(Vtree::Random(Iota(n), rng));
  return out;
}

TEST(ParallelSddTest, SemanticCompileParallelIsPointerIdentical) {
  Rng rng(314159);
  exec::TaskPool pool(4);
  for (const int n : {8, 11, 14}) {
    for (Vtree& vt : TestVtrees(n, &rng)) {
      SddManager m(vt);
      std::vector<BoolFunc> funcs;
      std::vector<SddManager::NodeId> seq_roots;
      for (int i = 0; i < 6; ++i) {
        funcs.push_back(BoolFunc::Random(Iota(n), &rng));
        seq_roots.push_back(CompileFuncToSdd(&m, funcs.back()));
      }
      // Recompile with the pool attached: pointer-identical roots.
      m.AttachExecutor(&pool);
      for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(CompileFuncToSdd(&m, funcs[i]), seq_roots[i])
            << "n=" << n << " func " << i;
      }
      m.AttachExecutor(nullptr);
      for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(m.ToBoolFunc(seq_roots[i]), funcs[i].ExpandTo(Iota(n)));
      }
    }
  }
}

TEST(ParallelSddTest, ParallelFirstCompileThenSequentialIsIdentical) {
  Rng rng(8675309);
  exec::TaskPool pool(4);
  for (const int n : {10, 13}) {
    Vtree vt = Vtree::Balanced(Iota(n));
    SddManager m(vt);
    m.AttachExecutor(&pool);
    std::vector<BoolFunc> funcs;
    std::vector<SddManager::NodeId> par_roots;
    for (int i = 0; i < 5; ++i) {
      funcs.push_back(BoolFunc::Random(Iota(n), &rng));
      par_roots.push_back(CompileFuncToSdd(&m, funcs.back()));
      EXPECT_TRUE(m.Validate(par_roots.back()).ok());
    }
    m.AttachExecutor(nullptr);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(CompileFuncToSdd(&m, funcs[i]), par_roots[i]);
      EXPECT_EQ(m.ToBoolFunc(par_roots[i]), funcs[i].ExpandTo(Iota(n)));
    }
  }
}

// Apply operations ignore an attached pool: the same ids as before it was
// attached, and the pool runs no task.
TEST(ParallelSddTest, PoolAttachedApplyMatchesSequentialPointerwise) {
  Rng rng(271828);
  exec::TaskPool pool(4);
  for (const int n : {10, 12}) {
    SddManager m(Vtree::Balanced(Iota(n)));
    std::vector<SddManager::NodeId> roots;
    std::vector<BoolFunc> funcs;
    for (int i = 0; i < 5; ++i) {
      funcs.push_back(BoolFunc::Random(Iota(n), &rng));
      roots.push_back(CompileFuncToSdd(&m, funcs[i]));
    }
    std::vector<SddManager::NodeId> seq_results;
    for (size_t i = 0; i < roots.size(); ++i) {
      for (size_t j = i + 1; j < roots.size(); ++j) {
        seq_results.push_back(m.And(roots[i], roots[j]));
        seq_results.push_back(m.Or(roots[i], roots[j]));
      }
    }
    seq_results.push_back(m.AndN({roots[0], roots[1], roots[2]}));
    seq_results.push_back(m.OrN({roots[2], roots[3], roots[4]}));
    seq_results.push_back(m.Not(roots[0]));
    m.AttachExecutor(&pool);
    size_t k = 0;
    for (size_t i = 0; i < roots.size(); ++i) {
      for (size_t j = i + 1; j < roots.size(); ++j) {
        EXPECT_EQ(m.And(roots[i], roots[j]), seq_results[k++]);
        EXPECT_EQ(m.Or(roots[i], roots[j]), seq_results[k++]);
      }
    }
    EXPECT_EQ(m.AndN({roots[0], roots[1], roots[2]}), seq_results[k++]);
    EXPECT_EQ(m.OrN({roots[2], roots[3], roots[4]}), seq_results[k++]);
    EXPECT_EQ(m.Not(roots[0]), seq_results[k++]);
    m.AttachExecutor(nullptr);
    EXPECT_EQ(pool.tasks_run(), 0u) << "an apply operation forked";
    // Semantic ground truth for a few of the pairs.
    EXPECT_EQ(m.ToBoolFunc(seq_results[0]),
              (funcs[0] & funcs[1]).ExpandTo(Iota(n)));
    EXPECT_EQ(m.ToBoolFunc(seq_results[1]),
              (funcs[0] | funcs[1]).ExpandTo(Iota(n)));
  }
}

// Applies on pool-built operands, run with the pool still attached, are
// Validate()-clean, fork nothing, and match a pool-free rerun.
TEST(ParallelSddTest, PoolAttachedApplyFirstValidatesAndMatchesTruth) {
  Rng rng(5551212);
  exec::TaskPool pool(4);
  const int n = 12;
  SddManager m(Vtree::Balanced(Iota(n)));
  m.AttachExecutor(&pool);
  const BoolFunc fa = BoolFunc::Random(Iota(n), &rng);
  const BoolFunc fb = BoolFunc::Random(Iota(n), &rng);
  const auto a = CompileFuncToSdd(&m, fa);
  const auto b = CompileFuncToSdd(&m, fb);
  const uint64_t tasks_after_compiles = pool.tasks_run();
  const auto par_and = m.And(a, b);
  const auto par_or = m.Or(a, b);
  EXPECT_TRUE(m.Validate(par_and).ok());
  EXPECT_TRUE(m.Validate(par_or).ok());
  m.AttachExecutor(nullptr);
  EXPECT_EQ(pool.tasks_run(), tasks_after_compiles)
      << "an apply operation forked";
  EXPECT_EQ(m.And(a, b), par_and);
  EXPECT_EQ(m.Or(a, b), par_or);
  EXPECT_EQ(m.ToBoolFunc(par_and), (fa & fb).ExpandTo(Iota(n)));
  EXPECT_EQ(m.ToBoolFunc(par_or), (fa | fb).ExpandTo(Iota(n)));
}

// The sequential path must keep feeding the manager's diagnostic
// counters (they merge from the per-context tallies at LeaveOp).
TEST(ParallelSddTest, SequentialCountersStillAccumulate) {
  Rng rng(4242);
  const int n = 10;
  SddManager m(Vtree::Balanced(Iota(n)));
  const auto a = CompileFuncToSdd(&m, BoolFunc::Random(Iota(n), &rng));
  const auto b = CompileFuncToSdd(&m, BoolFunc::Random(Iota(n), &rng));
  (void)m.And(a, b);
  (void)m.Or(a, b);
  EXPECT_GT(m.counters().apply_calls, 0u);
  EXPECT_GT(m.counters().element_products, 0u);
}

#ifndef NDEBUG
// The manager is single-owner with no exception: a second thread that
// builds a node trips the owning-thread assertion, including the two
// calls the semantic compiler makes (Literal, Decision).
TEST(ParallelSddDeathTest, SecondThreadBuildingNodesAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SddManager m(Vtree::Balanced(Iota(4)));
  const auto x = m.Literal(0, true);
  const auto nx = m.Literal(0, false);
  EXPECT_DEATH(
      {
        std::thread other([&] { (void)m.Literal(1, true); });
        other.join();
      },
      "single-threaded component");
  EXPECT_DEATH(
      {
        std::thread other([&] {
          (void)m.Decision(m.vtree().parent(m.vtree().LeafOf(0)),
                           {{x, SddManager::kTrue}, {nx, SddManager::kFalse}});
        });
        other.join();
      },
      "single-threaded component");
}
#endif  // NDEBUG

// Workers only plan; the owning thread builds every node in the order a
// pool-free compile does. So a pool-attached compile in a fresh manager
// creates exactly the node ids of a pool-free one: the same root id and
// the same NumNodes().
TEST(ParallelSddTest, PoolCompileCreatesTheSameNodesInAFreshManager) {
  Rng rng(1729);
  exec::TaskPool pool(4);
  for (const int n : {8, 11, 14}) {
    for (const Vtree& vt : TestVtrees(n, &rng)) {
      for (int i = 0; i < 3; ++i) {
        const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
        SddManager seq(vt);
        SddManager par(vt);
        par.AttachExecutor(&pool);
        const auto seq_root = CompileFuncToSdd(&seq, f);
        EXPECT_EQ(CompileFuncToSdd(&par, f), seq_root) << "n=" << n;
        EXPECT_EQ(par.NumNodes(), seq.NumNodes()) << "n=" << n;
      }
    }
  }
}

// The acceptance workload of the semantic fork: the Appendix-A ISA
// compile (18 variables, so CompileCircuitToSdd takes the semantic route)
// must actually run pool tasks, and the parallel-built root must be
// structurally clean, identical to a sequential recompile, and node for
// node the root of a pool-free compile in a fresh manager.
TEST(ParallelSddTest, IsaCompileForksAndMatchesSequential) {
  const IsaParams params{2, 4};
  const Circuit circuit = IsaCircuit(params);
  ASSERT_LE(static_cast<int>(circuit.Vars().size()), kSemanticCircuitMaxVars);
  exec::TaskPool pool(4);
  SddManager m(IsaVtree(params));
  m.AttachExecutor(&pool);
  const auto par_root = CompileCircuitToSdd(&m, circuit);
  m.AttachExecutor(nullptr);
  EXPECT_GT(pool.tasks_run(), 0u) << "the semantic compile did not fork";
  ASSERT_GE(par_root, 0);
  const Status valid = m.Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(CompileCircuitToSdd(&m, circuit), par_root);
  SddManager seq(IsaVtree(params));
  EXPECT_EQ(CompileCircuitToSdd(&seq, circuit), par_root);
  EXPECT_EQ(seq.NumNodes(), m.NumNodes());
}

// Circuits wider than kSemanticCircuitMaxVars take the apply route on
// both managers, which never forks: a pool-attached compile in a fresh
// manager assigns exactly the ids a pool-free compile does, and the pool
// runs nothing.
TEST(ParallelSddTest, ApplyRouteCompilesIgnoreThePool) {
  const int n = 48;
  const Circuit c = BandedCnfCircuit(n, 4);
  ASSERT_GT(static_cast<int>(c.Vars().size()), kSemanticCircuitMaxVars);
  const auto vtree = VtreeForCircuit(c);
  ASSERT_TRUE(vtree.ok());
  exec::TaskPool pool(4);

  SddManager sdd_seq(vtree.value());
  SddManager sdd_par(vtree.value());
  sdd_par.AttachExecutor(&pool);
  const auto sdd_root = CompileCircuitToSdd(&sdd_par, c);
  EXPECT_EQ(sdd_root, CompileCircuitToSdd(&sdd_seq, c));
  EXPECT_EQ(sdd_par.NumNodes(), sdd_seq.NumNodes());

  ObddManager obdd_seq(Iota(n));
  ObddManager obdd_par(Iota(n));
  obdd_par.AttachExecutor(&pool);
  const auto obdd_root = CompileCircuitToObdd(&obdd_par, c);
  EXPECT_EQ(obdd_root, CompileCircuitToObdd(&obdd_seq, c));
  EXPECT_EQ(obdd_par.NumNodes(), obdd_seq.NumNodes());

  EXPECT_EQ(pool.tasks_run(), 0u);
  std::vector<bool> values(n, false);
  Rng rng(99);
  for (int probe = 0; probe < 64; ++probe) {
    const uint64_t bits = rng.Next64();
    for (int i = 0; i < n; ++i) values[i] = (bits >> (i % 64)) & 1;
    EXPECT_EQ(obdd_par.Evaluate(obdd_root, values), Evaluate(c, values));
  }
}

}  // namespace
}  // namespace ctsdd
