// Randomized equivalence suite for the vtree-guided semantic SDD compiler
// and the compression-aware apply rework: the semantic route, a Shannon-
// apply oracle, and word-parallel BoolFunc semantics must agree —
// pointer-identically, since the manager is canonical — across vtree
// shapes, and every compiled SDD must pass the structural Validate().

#include <functional>
#include <unordered_map>
#include <vector>

#include "circuit/families.h"
#include "compile/isa.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
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

// The oracle: variable-at-a-time Shannon expansion through binary
// applies, f = (x AND f|x=1) OR (!x AND f|x=0), memoized per cofactor.
// Quadratically more apply work than the semantic compiler, but it
// shares no code with it.
SddManager::NodeId CompileShannon(SddManager* manager, const BoolFunc& f) {
  std::unordered_map<BoolFunc, SddManager::NodeId, BoolFunc::Hasher> memo;
  std::function<SddManager::NodeId(const BoolFunc&)> rec =
      [&](const BoolFunc& g) -> SddManager::NodeId {
    if (g.IsConstantFalse()) return manager->False();
    if (g.IsConstantTrue()) return manager->True();
    const auto it = memo.find(g);
    if (it != memo.end()) return it->second;
    const int var = g.vars()[0];
    const SddManager::NodeId lo = rec(g.Restrict(var, false));
    const SddManager::NodeId hi = rec(g.Restrict(var, true));
    const SddManager::NodeId x = manager->Literal(var, true);
    const SddManager::NodeId result = manager->Or(
        manager->And(x, hi), manager->And(manager->Not(x), lo));
    memo.emplace(g, result);
    return result;
  };
  return rec(f);
}

// >= 200 random functions spread over four vtree shapes (balanced,
// right-linear, left-linear, random) and 4..8 variables. For each: the
// semantic compiler, the Shannon oracle, and the truth table agree, and
// the result validates.
TEST(SddSemanticTest, RandomizedEquivalenceAcrossVtreeShapes) {
  Rng rng(20260729);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + trial % 5;
    const std::vector<int> vars = Iota(n);
    const Vtree shapes[4] = {
        Vtree::Balanced(vars), Vtree::RightLinear(vars),
        Vtree::LeftLinear(vars), Vtree::Random(vars, &rng)};
    const BoolFunc f = BoolFunc::Random(vars, &rng);
    for (const Vtree& vt : shapes) {
      SddManager m(vt);
      const auto semantic = CompileFuncToSdd(&m, f);
      const auto shannon = CompileShannon(&m, f);
      // Canonical manager: same function, same node — whatever the route.
      EXPECT_EQ(semantic, shannon) << "trial " << trial;
      EXPECT_TRUE(m.ToBoolFunc(semantic) == f.ExpandTo(vars))
          << "trial " << trial;
      EXPECT_TRUE(m.Validate(semantic).ok()) << m.Validate(semantic);
      ++checked;
    }
  }
  EXPECT_GE(checked, 200);
}

// Skewed/degenerate functions the uniform-random sweep is unlikely to
// produce: constants, literals, single minterms and their negations,
// parity, and functions with irrelevant variables.
TEST(SddSemanticTest, StructuredFunctionsAgreeWithOracle) {
  Rng rng(4242);
  const int n = 6;
  const std::vector<int> vars = Iota(n);
  std::vector<BoolFunc> funcs;
  funcs.push_back(BoolFunc::ConstantOver(vars, false));
  funcs.push_back(BoolFunc::ConstantOver(vars, true));
  for (int v = 0; v < n; ++v) funcs.push_back(BoolFunc::Literal(v, true));
  // Single minterm and its negation.
  std::vector<bool> table(1u << n, false);
  table[37] = true;
  funcs.push_back(BoolFunc::FromTable(vars, table));
  funcs.push_back(~funcs.back());
  funcs.push_back(BoolFunc::FromCircuitOver(ParityCircuit(n), vars));
  // Depends only on x2, expressed over all six variables.
  funcs.push_back(BoolFunc::Literal(2, false).ExpandTo(vars));
  for (int trial = 0; trial < 8; ++trial) {
    const Vtree vt = Vtree::Random(vars, &rng);
    for (const BoolFunc& f : funcs) {
      SddManager m(vt);
      const auto semantic = CompileFuncToSdd(&m, f);
      EXPECT_EQ(semantic, CompileShannon(&m, f));
      EXPECT_TRUE(m.ToBoolFunc(semantic) == f.ExpandTo(vars));
      EXPECT_TRUE(m.Validate(semantic).ok()) << m.Validate(semantic);
    }
  }
}

// The circuit entry point (semantic fast path for small circuits) agrees
// with both function-compilation routes.
TEST(SddSemanticTest, CircuitRouteMatchesFuncRoutes) {
  Rng rng(99);
  const Circuit majority = MajorityCircuit(7);
  const Circuit isa = IsaCircuit({1, 2});
  for (int trial = 0; trial < 10; ++trial) {
    {
      SddManager m(Vtree::Random(Iota(7), &rng));
      const BoolFunc f = BoolFunc::FromCircuit(majority);
      const auto via_circuit = CompileCircuitToSdd(&m, majority);
      EXPECT_EQ(via_circuit, CompileFuncToSdd(&m, f));
      EXPECT_EQ(via_circuit, CompileShannon(&m, f));
    }
    {
      SddManager m(IsaVtree({1, 2}));
      const auto via_circuit = CompileCircuitToSdd(&m, isa);
      EXPECT_EQ(via_circuit,
                CompileFuncToSdd(&m, BoolFunc::FromCircuit(isa)));
      EXPECT_TRUE(m.Validate(via_circuit).ok());
    }
  }
}

// Tiny caches (apply + semantic) may only cost recomputation: compiled
// structures must be node-for-node identical to a default-cache manager's.
TEST(SddSemanticTest, TinySemanticCacheNeverChangesResults) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    SddManager::Options tiny;
    tiny.apply_cache_slots = 2;
    tiny.sem_cache_slots = 2;
    const Vtree vt = Vtree::Random(Iota(6), &rng);
    SddManager a(vt);
    SddManager b(vt, tiny);
    const BoolFunc f = BoolFunc::Random(Iota(6), &rng);
    const auto ra = CompileFuncToSdd(&a, f);
    const auto rb = CompileFuncToSdd(&b, f);
    EXPECT_TRUE(a.ToBoolFunc(ra) == b.ToBoolFunc(rb));
    EXPECT_EQ(a.Size(ra), b.Size(rb));
    EXPECT_EQ(a.NumDecisions(ra), b.NumDecisions(rb));
    EXPECT_TRUE(b.Validate(rb).ok()) << b.Validate(rb);
  }
}

// A decision found in the unique table re-stores its (anchor, word)
// mapping, so an evicted mapping is served again after the next Decision
// on the same elements.
TEST(SddSemanticTest, FoundDecisionRestoresItsSemanticMapping) {
  SddManager::Options tiny;
  tiny.sem_cache_slots = 2;
  const Vtree vt = Vtree::Balanced(Iota(4));
  SddManager m(vt, tiny);
  const int left = vt.left(vt.root());  // scope {x0, x1}
  const SddManager::Elements x0_and_x1 = {
      {m.Literal(0, true), m.Literal(1, true)},
      {m.Literal(0, false), m.False()}};
  const SddManager::NodeId node = m.Decision(left, x0_and_x1);
  // The root anchors every node (4 variables); x0 AND x1 is true where
  // index bits 0 and 1 are both set.
  constexpr uint64_t kWord = 0x8888;
  ASSERT_EQ(m.LookupSemantic(left, kWord), node);
  Rng rng(5);
  for (int trial = 0; trial < 200 && m.LookupSemantic(left, kWord) == node;
       ++trial) {
    CompileFuncToSdd(&m, BoolFunc::Random(Iota(4), &rng));
  }
  ASSERT_EQ(m.LookupSemantic(left, kWord), -1) << "mapping never evicted";
  EXPECT_EQ(m.Decision(left, x0_and_x1), node);
  EXPECT_EQ(m.LookupSemantic(left, kWord), node);
}

// Negation links are exact and bidirectional, and f op !f resolves to the
// proper constant even for freshly built diagrams.
TEST(SddSemanticTest, NegationLinksShortCircuitApply) {
  Rng rng(31337);
  SddManager m(Vtree::Balanced(Iota(8)));
  for (int trial = 0; trial < 25; ++trial) {
    const auto f = CompileFuncToSdd(&m, BoolFunc::Random(Iota(8), &rng));
    const auto nf = m.Not(f);
    EXPECT_EQ(m.KnownNegation(f), nf);
    EXPECT_EQ(m.KnownNegation(nf), f);
    EXPECT_EQ(m.And(f, nf), m.False());
    EXPECT_EQ(m.Or(f, nf), m.True());
    EXPECT_EQ(m.Not(nf), f);
  }
}

// Wide n-ary folds (through the element-level ApplyN product and its
// product-cap fallback) match binary chains.
TEST(SddSemanticTest, WideNaryFoldsMatchChains) {
  Rng rng(555);
  SddManager m(Vtree::Balanced(Iota(10)));
  for (int trial = 0; trial < 12; ++trial) {
    const int k = 3 + rng.NextInt(0, 12);  // spans the n-ary fold arity
    std::vector<SddManager::NodeId> ops;
    for (int i = 0; i < k; ++i) {
      const int u = rng.NextInt(0, 9);
      const int v = (u + 1 + rng.NextInt(0, 8)) % 10;
      ops.push_back(CompileFuncToSdd(&m, BoolFunc::Random({u, v}, &rng)));
    }
    SddManager::NodeId and_chain = m.True();
    SddManager::NodeId or_chain = m.False();
    for (const auto op : ops) {
      and_chain = m.And(and_chain, op);
      or_chain = m.Or(or_chain, op);
    }
    EXPECT_EQ(m.AndN(ops), and_chain);
    EXPECT_EQ(m.OrN(ops), or_chain);
  }
}

// The word-parallel partition primitives behind the semantic compiler.
TEST(SddSemanticTest, CofactorsOverMatchesRestrictChains) {
  Rng rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + trial % 6;  // 3..8 variables
    const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
    // Random non-empty proper subset of the variables.
    std::vector<int> on;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBool()) on.push_back(v);
    }
    if (on.empty()) on.push_back(0);
    if (static_cast<int>(on.size()) == n) on.pop_back();
    const auto cofactors = f.CofactorsOver(on);
    ASSERT_EQ(cofactors.size(), 1u << on.size());
    for (uint32_t a = 0; a < cofactors.size(); ++a) {
      BoolFunc expected = f;
      for (size_t j = 0; j < on.size(); ++j) {
        expected = expected.Restrict(on[j], (a >> j) & 1);
      }
      EXPECT_TRUE(cofactors[a] == expected)
          << "trial " << trial << " assignment " << a;
    }
  }
}

TEST(SddSemanticTest, WordOverMatchesExpandTo) {
  Rng rng(1618);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + trial % 4;  // superset below stays within 6 vars
    std::vector<int> vars;
    for (int v = 0; v < 10 && static_cast<int>(vars.size()) < n; ++v) {
      if (rng.NextBool()) vars.push_back(v);
    }
    if (vars.empty()) vars.push_back(0);
    const BoolFunc f = BoolFunc::Random(vars, &rng);
    std::vector<int> superset = vars;
    for (int v = 10; v < 12; ++v) superset.push_back(v);
    const BoolFunc expanded = f.ExpandTo(superset);
    const uint64_t word = f.WordOver(expanded.vars());
    for (uint32_t i = 0; i < expanded.table_size(); ++i) {
      EXPECT_EQ((word >> i) & 1, expanded.EvalIndex(i) ? 1u : 0u);
    }
  }
}

}  // namespace
}  // namespace ctsdd
