#include <cmath>
#include <vector>

#include "circuit/builder.h"
#include "circuit/eval.h"
#include "circuit/families.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "util/budget.h"
#include "util/random.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(ObddTest, TerminalsAndLiterals) {
  ObddManager m(Iota(3));
  EXPECT_EQ(m.And(m.True(), m.False()), m.False());
  EXPECT_EQ(m.Or(m.True(), m.False()), m.True());
  const auto x = m.Literal(1, true);
  EXPECT_EQ(m.Not(m.Not(x)), x);
  EXPECT_EQ(m.And(x, m.Not(x)), m.False());
  EXPECT_EQ(m.Or(x, m.Not(x)), m.True());
}

TEST(ObddTest, HashConsingSharesNodes) {
  ObddManager m(Iota(2));
  const auto a = m.And(m.Literal(0, true), m.Literal(1, true));
  const auto b = m.And(m.Literal(1, true), m.Literal(0, true));
  EXPECT_EQ(a, b);
}

TEST(ObddTest, CountModels) {
  ObddManager m(Iota(4));
  const auto x0 = m.Literal(0, true);
  EXPECT_EQ(m.CountModels(x0), 8u);  // free vars double the count
  const auto f = m.Or(x0, m.Literal(3, true));
  EXPECT_EQ(m.CountModels(f), 12u);
  EXPECT_EQ(m.CountModels(m.True()), 16u);
  EXPECT_EQ(m.CountModels(m.False()), 0u);
}

TEST(ObddTest, ParityWidthIsTwo) {
  ObddManager m(Iota(8));
  const auto root = CompileCircuitToObdd(&m, ParityCircuit(8));
  EXPECT_EQ(m.CountModels(root), 128u);
  EXPECT_EQ(m.Width(root), 2);
  EXPECT_EQ(m.Size(root), 15);  // 2 per level except the first
}

TEST(ObddTest, EvaluateAgainstCircuit) {
  Rng rng(5);
  const Circuit c = MajorityCircuit(5);
  ObddManager m(Iota(5));
  const auto root = CompileCircuitToObdd(&m, c);
  for (uint32_t mask = 0; mask < 32; ++mask) {
    std::vector<bool> a(5);
    for (int i = 0; i < 5; ++i) a[i] = (mask >> i) & 1;
    EXPECT_EQ(m.Evaluate(root, a), EvaluateMask(c, mask));
  }
}

TEST(ObddTest, RestrictMatchesSemantics) {
  Rng rng(7);
  const BoolFunc f = BoolFunc::Random({0, 1, 2, 3, 4}, &rng);
  ObddManager m(Iota(5));
  const auto root = CompileFuncToObdd(&m, f);
  const auto restricted = m.Restrict(root, 2, true);
  const BoolFunc expected = f.Restrict(2, true).ExpandTo(f.vars());
  ObddManager::NodeId expected_node = CompileFuncToObdd(&m, expected);
  EXPECT_EQ(restricted, expected_node);
}

TEST(ObddTest, WeightedModelCount) {
  ObddManager m(Iota(2));
  // f = x0 | x1 with P(x0)=0.5, P(x1)=0.25: P(f) = 1 - 0.5*0.75.
  const auto f = m.Or(m.Literal(0, true), m.Literal(1, true));
  const double p = m.WeightedModelCount(f, {0.5, 0.25});
  EXPECT_NEAR(p, 1.0 - 0.5 * 0.75, 1e-12);
}

TEST(ObddTest, WmcMatchesCountingAtHalf) {
  Rng rng(11);
  const BoolFunc f = BoolFunc::Random({0, 1, 2, 3, 4, 5}, &rng);
  ObddManager m(Iota(6));
  const auto root = CompileFuncToObdd(&m, f);
  const double wmc =
      m.WeightedModelCount(root, std::vector<double>(6, 0.5));
  EXPECT_NEAR(wmc * 64.0, static_cast<double>(f.CountModels()), 1e-9);
}

TEST(ObddCompileTest, FuncAndCircuitRoutesAgree) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    Circuit c;
    ExprFactory fac(&c);
    // Random small formula over 5 vars.
    Expr e = fac.Var(0);
    for (int i = 1; i < 5; ++i) {
      Expr x = fac.Var(i);
      if (rng.NextBool()) x = !x;
      e = rng.NextBool() ? (e & x) : (e | x);
    }
    fac.SetOutput(e);
    ObddManager m(Iota(5));
    const auto via_circuit = CompileCircuitToObdd(&m, c);
    const auto via_func = CompileFuncToObdd(&m, BoolFunc::FromCircuitOver(
                                                    c, Iota(5)));
    EXPECT_EQ(via_circuit, via_func);
  }
}

// Functions over more than 20 variables take CompileFuncToObdd's Shannon
// route (a layered table would hold 2^21 entries): the result counts and
// evaluates like the BoolFunc, and a budgeted compile aborts cleanly.
TEST(ObddCompileTest, ShannonRouteBeyondTwentyVariables) {
  const int n = 21;
  static_assert(21 <= BoolFunc::kMaxVars);
  const BoolFunc f =
      BoolFunc::FromCircuitOver(BandedCnfCircuit(n, 3), Iota(n)) ^
      BoolFunc::FromCircuitOver(ParityCircuit(n), Iota(n));
  ASSERT_EQ(f.num_vars(), n);
  ObddManager m(Iota(n));
  const auto root = CompileFuncToObdd(&m, f);
  ASSERT_GE(root, 0);
  EXPECT_EQ(m.CountModels(root), f.CountModels());
  Rng rng(2121);
  std::vector<bool> values(n);
  for (int probe = 0; probe < 256; ++probe) {
    for (int i = 0; i < n; ++i) values[i] = rng.NextBool();
    EXPECT_EQ(m.Evaluate(root, values), f.Eval(values));
  }

  ObddManager budgeted(Iota(n));
  WorkBudget budget(8);
  budgeted.AttachBudget(&budget);
  EXPECT_EQ(CompileFuncToObdd(&budgeted, f), ObddManager::kAborted);
  budgeted.DetachBudget();
  EXPECT_EQ(budget.reason(), StatusCode::kResourceExhausted);
  const Status valid = budgeted.Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(budgeted.CountModels(CompileFuncToObdd(&budgeted, f)),
            f.CountModels());
}

TEST(ObddCompileTest, OrderMattersForDisjointness) {
  // D_n under the separated order (all X then all Y) has exponential
  // width; under the interleaved order it stays constant-width.
  const int n = 6;
  const Circuit c = DisjointnessCircuit(n);
  std::vector<int> separated;
  for (int i = 0; i < 2 * n; ++i) separated.push_back(i);
  std::vector<int> interleaved;
  for (int i = 0; i < n; ++i) {
    interleaved.push_back(i);
    interleaved.push_back(n + i);
  }
  ObddManager sep(separated);
  ObddManager inter(interleaved);
  const int sep_size = sep.Size(CompileCircuitToObdd(&sep, c));
  const int inter_size = inter.Size(CompileCircuitToObdd(&inter, c));
  EXPECT_GT(sep_size, 3 * inter_size);
  EXPECT_LE(inter.Width(CompileCircuitToObdd(&inter, c)), 3);
}

TEST(ObddCompileTest, BestOrderSearchFindsInterleaving) {
  const BoolFunc f = BoolFunc::FromCircuit(DisjointnessCircuit(3));
  const ObddStats best = BestObddOverAllOrders(f, /*minimize_width=*/false);
  const ObddStats natural = ObddStatsForOrder(f, f.vars());
  EXPECT_LE(best.size, natural.size);
  EXPECT_LE(best.width, 3);
}

TEST(ObddCompileTest, SiftingImproves) {
  const BoolFunc f = BoolFunc::FromCircuit(DisjointnessCircuit(4));
  const ObddStats natural = ObddStatsForOrder(f, f.vars());
  const ObddStats sifted = BestObddBySifting(f, /*minimize_width=*/false);
  EXPECT_LE(sifted.size, natural.size);
}

TEST(ObddCompileTest, StatsOrderRecorded) {
  const BoolFunc f = BoolFunc::FromCircuit(ParityCircuit(4));
  const ObddStats stats = ObddStatsForOrder(f, {3, 1, 0, 2});
  EXPECT_EQ(stats.order, (std::vector<int>{3, 1, 0, 2}));
  EXPECT_EQ(stats.width, 2);
}

}  // namespace
}  // namespace ctsdd
