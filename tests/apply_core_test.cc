// Invariant tests for the high-throughput apply core: randomized OBDD/SDD
// operation sequences cross-checked against BoolFunc semantics (the
// executable model of the paper's semantic constructions), SDD structural
// validation after apply-heavy workloads, and a regression that computed-
// cache eviction never changes results — only the unique table carries
// canonicity, so a tiny cache must recompute its way to identical answers.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "circuit/families.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
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

// Applies a random operation to the paired (manager node, BoolFunc)
// states, keeping them semantically in lockstep.
template <typename ApplyBinary, typename ApplyNot, typename ApplyRestrict>
void RandomOpSequence(Rng* rng, int num_vars, int num_ops,
                      std::vector<std::pair<int, BoolFunc>>* pool,
                      ApplyBinary binary, ApplyNot negate,
                      ApplyRestrict restrict_op) {
  for (int step = 0; step < num_ops; ++step) {
    const int choice = rng->NextInt(0, 9);
    const size_t i = rng->NextBelow(pool->size());
    const size_t j = rng->NextBelow(pool->size());
    if (choice < 6) {
      // And / Or / Xor on two pool entries.
      pool->push_back(binary(choice % 3, (*pool)[i], (*pool)[j]));
    } else if (choice < 8) {
      pool->push_back(negate((*pool)[i]));
    } else {
      const int var = rng->NextInt(0, num_vars - 1);
      const bool value = rng->NextBool();
      pool->push_back(restrict_op((*pool)[i], var, value));
    }
  }
}

// --- OBDD op sequences cross-checked against BoolFunc -----------------

void RunObddSequence(ObddManager* m, uint64_t seed) {
  const int n = 8;
  Rng rng(seed);
  std::vector<std::pair<int, BoolFunc>> pool;
  for (int v = 0; v < n; ++v) {
    pool.emplace_back(m->Literal(v, true), BoolFunc::Literal(v, true));
  }
  RandomOpSequence(
      &rng, n, 60, &pool,
      [&](int op, const auto& a, const auto& b) -> std::pair<int, BoolFunc> {
        switch (op) {
          case 0:
            return {m->And(a.first, b.first), a.second & b.second};
          case 1:
            return {m->Or(a.first, b.first), a.second | b.second};
          default:
            return {m->Xor(a.first, b.first), a.second ^ b.second};
        }
      },
      [&](const auto& a) -> std::pair<int, BoolFunc> {
        return {m->Not(a.first), ~a.second};
      },
      [&](const auto& a, int var, bool value) -> std::pair<int, BoolFunc> {
        // Keep the function over the full variable set so indices align.
        const BoolFunc expanded = a.second.ExpandTo(Iota(n));
        return {m->Restrict(a.first, var, value),
                expanded.Restrict(var, value).ExpandTo(Iota(n))};
      });
  // Every pool entry must evaluate exactly like its BoolFunc model.
  for (const auto& [node, func] : pool) {
    const BoolFunc full = func.ExpandTo(Iota(n));
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<bool> values(n);
      for (int v = 0; v < n; ++v) values[v] = (mask >> v) & 1;
      ASSERT_EQ(m->Evaluate(node, values), full.EvalIndex(mask))
          << "seed " << seed << " mask " << mask;
    }
  }
}

TEST(ApplyCoreObddTest, RandomOpSequencesMatchBoolFuncSemantics) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ObddManager m(Iota(8));
    RunObddSequence(&m, seed);
  }
}

TEST(ApplyCoreObddTest, TinyCachesNeverChangeResults) {
  // A cache with 2 slots evicts on nearly every store; results must still
  // be identical node-for-node because canonicity lives in the unique
  // table, not the computed caches.
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    ObddManager::Options tiny;
    tiny.ite_cache_slots = 2;
    tiny.nary_cache_slots = 2;
    ObddManager m(Iota(8), tiny);
    RunObddSequence(&m, seed);
  }
}

// Fan-in `k` operands over variables 0..n-1 for the multi-way tests: each
// a literal or the And/Or of two literals at most 3 apart, so their top
// levels (OBDD) and vtree nodes (SDD) spread over the whole order or
// vtree and wide AndN folds see several non-empty buckets. With
// `contradict`, two of them become x_{b-1} & x_b and !x_b & x_{b+1}: a
// pair in different buckets whose conjunction is false.
template <class Manager>
std::vector<typename Manager::NodeId> SpreadOperands(Manager* m, Rng* rng,
                                                     int n, int k,
                                                     bool contradict) {
  std::vector<typename Manager::NodeId> ops;
  for (int i = 0; i < k; ++i) {
    const int a = rng->NextInt(0, n - 1);
    const int b = std::min(n - 1, a + rng->NextInt(1, 3));
    // Mostly positive literals and mostly clauses, so that wide
    // conjunctions are often satisfiable.
    const auto la = m->Literal(a, rng->NextInt(0, 3) != 0);
    const auto lb = m->Literal(b, rng->NextInt(0, 3) != 0);
    const int shape = rng->NextInt(0, 3);
    ops.push_back(shape == 0   ? la
                  : shape == 1 ? m->And(la, lb)
                               : m->Or(la, lb));
  }
  if (contradict) {
    const int b = rng->NextInt(1, n - 2);
    const size_t i = rng->NextBelow(ops.size());
    const size_t j = (i + 1 + rng->NextBelow(ops.size() - 1)) % ops.size();
    ops[i] = m->And(m->Literal(b - 1, true), m->Literal(b, true));
    ops[j] = m->And(m->Literal(b, false), m->Literal(b + 1, true));
  }
  return ops;
}

TEST(ApplyCoreObddTest, MultiWayApplyMatchesBinaryChain) {
  // Fan-in 2..16: past kNaryFoldArity, AndN folds along the order.
  Rng rng(99);
  const int n = 24;
  ObddManager m(Iota(n));
  for (int k = 2; k <= 16; ++k) {
    for (const bool contradict : {false, false, true}) {
      const auto ops = SpreadOperands(&m, &rng, n, k, contradict);
      ObddManager::NodeId and_chain = m.True();
      ObddManager::NodeId or_chain = m.False();
      std::set<int> top_levels;
      for (const auto op : ops) {
        and_chain = m.And(and_chain, op);
        or_chain = m.Or(or_chain, op);
        top_levels.insert(m.node(op).level);
      }
      if (k > static_cast<int>(ObddManager::kNaryFoldArity)) {
        EXPECT_GE(top_levels.size(), 3u) << "k=" << k;
      }
      if (contradict) EXPECT_EQ(and_chain, m.False());
      EXPECT_EQ(m.AndN(ops), and_chain) << "k=" << k;
      EXPECT_EQ(m.OrN(ops), or_chain) << "k=" << k;
    }
  }
}

TEST(ApplyCoreObddTest, MultiWayApplyEdgeCases) {
  ObddManager m(Iota(4));
  const auto x = m.Literal(0, true);
  EXPECT_EQ(m.AndN({}), m.True());
  EXPECT_EQ(m.OrN({}), m.False());
  EXPECT_EQ(m.AndN({x}), x);
  EXPECT_EQ(m.AndN({x, m.True()}), x);             // neutral dropped
  EXPECT_EQ(m.AndN({x, m.False()}), m.False());    // absorbing short-circuit
  EXPECT_EQ(m.OrN({x, m.False()}), x);
  EXPECT_EQ(m.OrN({x, m.True()}), m.True());
  EXPECT_EQ(m.AndN({x, x, x}), x);                 // dedup
  EXPECT_EQ(m.AndN({x, m.Not(x)}), m.False());
  EXPECT_EQ(m.OrN({x, m.Not(x)}), m.True());
}

// --- SDD op sequences cross-checked against BoolFunc + Validate -------

void RunSddSequence(SddManager* m, uint64_t seed, int num_ops) {
  const int n = 6;
  Rng rng(seed);
  std::vector<std::pair<int, BoolFunc>> pool;
  for (int v = 0; v < n; ++v) {
    pool.emplace_back(m->Literal(v, true), BoolFunc::Literal(v, true));
  }
  RandomOpSequence(
      &rng, n, num_ops, &pool,
      [&](int op, const auto& a, const auto& b) -> std::pair<int, BoolFunc> {
        switch (op) {
          case 0:
            return {m->And(a.first, b.first), a.second & b.second};
          case 1:
            return {m->Or(a.first, b.first), a.second | b.second};
          default:
            // SDD managers have no native Xor; synthesize it.
            return {m->Or(m->And(a.first, m->Not(b.first)),
                          m->And(m->Not(a.first), b.first)),
                    a.second ^ b.second};
        }
      },
      [&](const auto& a) -> std::pair<int, BoolFunc> {
        return {m->Not(a.first), ~a.second};
      },
      [&](const auto& a, int var, bool value) -> std::pair<int, BoolFunc> {
        const BoolFunc expanded = a.second.ExpandTo(Iota(n));
        return {m->Restrict(a.first, var, value),
                expanded.Restrict(var, value).ExpandTo(Iota(n))};
      });
  for (const auto& [node, func] : pool) {
    EXPECT_EQ(m->ToBoolFunc(node), func.ExpandTo(Iota(n)))
        << "seed " << seed;
    EXPECT_TRUE(m->Validate(node).ok()) << "seed " << seed;
  }
}

TEST(ApplyCoreSddTest, RandomOpSequencesMatchBoolFuncSemantics) {
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    // Mix vtree shapes: balanced, right-linear (the OBDD case), random.
    Rng shape_rng(seed);
    SddManager balanced(Vtree::Balanced(Iota(6)));
    RunSddSequence(&balanced, seed, 40);
    SddManager linear(Vtree::RightLinear(Iota(6)));
    RunSddSequence(&linear, seed, 40);
    SddManager random(Vtree::Random(Iota(6), &shape_rng));
    RunSddSequence(&random, seed, 40);
  }
}

TEST(ApplyCoreSddTest, TinyCachesNeverChangeResults) {
  for (uint64_t seed = 31; seed <= 33; ++seed) {
    SddManager::Options tiny;
    tiny.apply_cache_slots = 2;
    SddManager m(Vtree::Balanced(Iota(6)), tiny);
    RunSddSequence(&m, seed, 40);
  }
}

TEST(ApplyCoreSddTest, TinyAndDefaultCachesAgreeNodeForNode) {
  // The same op sequence in a default-cache and a tiny-cache manager must
  // produce pointer-identical structures: eviction may only recompute.
  for (uint64_t seed = 41; seed <= 43; ++seed) {
    SddManager::Options tiny;
    tiny.apply_cache_slots = 2;
    SddManager a(Vtree::Balanced(Iota(6)));
    SddManager b(Vtree::Balanced(Iota(6)), tiny);
    Rng rng(seed);
    const BoolFunc f = BoolFunc::Random(Iota(6), &rng);
    const auto ra = CompileFuncToSdd(&a, f);
    const auto rb = CompileFuncToSdd(&b, f);
    EXPECT_EQ(a.ToBoolFunc(ra), b.ToBoolFunc(rb));
    EXPECT_EQ(a.CountModels(ra), b.CountModels(rb));
    EXPECT_EQ(a.Size(ra), b.Size(rb));
    EXPECT_EQ(a.Width(ra), b.Width(rb));
  }
}

TEST(ApplyCoreSddTest, MultiWaySddFoldMatchesChain) {
  // Fan-in 2..16: past kNaryFoldArity, AndN folds along the vtree. The
  // right-linear vtree puts buckets on a spine whose left halves are
  // single leaves.
  Rng rng(55);
  const int n = 24;
  for (const Vtree& vtree :
       {Vtree::Balanced(Iota(n)), Vtree::RightLinear(Iota(n))}) {
    SddManager m(vtree);
    for (int k = 2; k <= 16; ++k) {
      for (const bool contradict : {false, false, true}) {
        const auto ops = SpreadOperands(&m, &rng, n, k, contradict);
        SddManager::NodeId and_chain = m.True();
        SddManager::NodeId or_chain = m.False();
        std::set<int> buckets;
        for (const auto op : ops) {
          and_chain = m.And(and_chain, op);
          or_chain = m.Or(or_chain, op);
          buckets.insert(m.VtreeOf(op));
        }
        if (k > static_cast<int>(SddManager::kNaryFoldArity)) {
          EXPECT_GE(buckets.size(), 3u) << "k=" << k;
        }
        if (contradict) EXPECT_EQ(and_chain, m.False());
        EXPECT_EQ(m.AndN(ops), and_chain) << "k=" << k;
        EXPECT_EQ(m.OrN(ops), or_chain) << "k=" << k;
      }
    }
    EXPECT_TRUE(m.Validate().ok());
  }
}

// --- Word-parallel BoolFunc kernels against bit-by-bit references -----

TEST(ApplyCoreBoolFuncTest, WordParallelOpsMatchBitwiseReference) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.NextInt(1, 9);
    const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
    const BoolFunc g = BoolFunc::Random(Iota(n), &rng);
    // Binary ops, bit by bit.
    const BoolFunc fg_and = f & g;
    const BoolFunc fg_or = f | g;
    const BoolFunc fg_xor = f ^ g;
    for (uint32_t i = 0; i < f.table_size(); ++i) {
      ASSERT_EQ(fg_and.EvalIndex(i), f.EvalIndex(i) && g.EvalIndex(i));
      ASSERT_EQ(fg_or.EvalIndex(i), f.EvalIndex(i) || g.EvalIndex(i));
      ASSERT_EQ(fg_xor.EvalIndex(i), f.EvalIndex(i) != g.EvalIndex(i));
    }
    // Restrict at every position and value, bit by bit.
    for (int pos = 0; pos < n; ++pos) {
      for (const bool value : {false, true}) {
        const BoolFunc r = f.Restrict(Iota(n)[pos], value);
        for (uint32_t j = 0; j < r.table_size(); ++j) {
          const uint32_t low = j & ((1u << pos) - 1);
          const uint32_t index = ((j & ~((1u << pos) - 1)) << 1) | low |
                                 (static_cast<uint32_t>(value) << pos);
          ASSERT_EQ(r.EvalIndex(j), f.EvalIndex(index))
              << "n=" << n << " pos=" << pos;
        }
      }
    }
  }
}

TEST(ApplyCoreBoolFuncTest, ExpandToMatchesBitwiseReference) {
  Rng rng(88);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.NextInt(1, 7);
    // Choose a sparse variable set, then expand to a superset.
    std::vector<int> vars;
    for (int v = 0; v < 2 * n && static_cast<int>(vars.size()) < n; ++v) {
      if (rng.NextBool()) vars.push_back(v);
    }
    if (vars.empty()) vars.push_back(0);
    const BoolFunc f = BoolFunc::Random(vars, &rng);
    std::vector<int> superset = vars;
    for (int v = 0; v < 2 * n + 3; ++v) {
      if (rng.NextBool(0.3)) superset.push_back(v);
    }
    const BoolFunc e = f.ExpandTo(superset);
    // Every expanded index must agree with the projected original index.
    for (uint32_t i = 0; i < e.table_size(); ++i) {
      uint32_t orig = 0;
      for (size_t p = 0; p < f.vars().size(); ++p) {
        // Position of f's p-th variable inside e's variable list.
        const auto it = std::find(e.vars().begin(), e.vars().end(),
                                  f.vars()[p]);
        const size_t ep = static_cast<size_t>(it - e.vars().begin());
        if ((i >> ep) & 1) orig |= 1u << p;
      }
      ASSERT_EQ(e.EvalIndex(i), f.EvalIndex(orig)) << "trial " << trial;
    }
  }
}

TEST(ApplyCoreBoolFuncTest, WordParallelCircuitSweepMatchesScalarEval) {
  // FromCircuitOver's 64-lane sweep against the scalar evaluator.
  for (const int n : {3, 5, 7, 9}) {
    const Circuit c = MajorityCircuit(n);
    const BoolFunc f = BoolFunc::FromCircuit(c);
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<bool> assignment(n);
      int ones = 0;
      for (int v = 0; v < n; ++v) {
        assignment[v] = (mask >> v) & 1;
        ones += assignment[v];
      }
      ASSERT_EQ(f.EvalIndex(mask), ones >= (n + 1) / 2) << "n=" << n;
    }
  }
}

TEST(ApplyCoreBoolFuncTest, DependsOnPositionWordParallel) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.NextInt(1, 9);
    const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
    for (int pos = 0; pos < n; ++pos) {
      bool depends = false;
      const uint32_t bit = 1u << pos;
      for (uint32_t i = 0; i < f.table_size(); ++i) {
        if ((i & bit) == 0 && f.EvalIndex(i) != f.EvalIndex(i | bit)) {
          depends = true;
          break;
        }
      }
      ASSERT_EQ(f.DependsOnPosition(pos), depends);
    }
  }
}

// --- Compile paths stay canonical across cache regimes ----------------

TEST(ApplyCoreCompileTest, CircuitCompilesAgreeAcrossCacheSizes) {
  const Circuit circuits[] = {ParityCircuit(10), MajorityCircuit(9),
                              BandedCnfCircuit(12, 3)};
  for (const Circuit& c : circuits) {
    std::vector<int> order = c.Vars();
    ObddManager normal(order);
    ObddManager::Options tiny_opts;
    tiny_opts.ite_cache_slots = 2;
    tiny_opts.nary_cache_slots = 2;
    ObddManager tiny(order, tiny_opts);
    const auto root_normal = CompileCircuitToObdd(&normal, c);
    const auto root_tiny = CompileCircuitToObdd(&tiny, c);
    EXPECT_EQ(normal.CountModels(root_normal), tiny.CountModels(root_tiny));
    EXPECT_EQ(normal.Size(root_normal), tiny.Size(root_tiny));
    EXPECT_EQ(normal.Width(root_normal), tiny.Width(root_tiny));
  }
}

}  // namespace
}  // namespace ctsdd
