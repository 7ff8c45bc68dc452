// Property tests for the flat WMC tape (util/wmc_tape.h): tapes built by
// both managers evaluate to the enumerated weighted model count, agree
// with each other on one lineage, and handle the degenerate roots and
// weights.

#include <cstdint>
#include <span>
#include <vector>

#include "db/lineage.h"
#include "db/query.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/random.h"
#include "util/wmc_tape.h"
#include "vtree/vtree.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

// Sum over f's models of the product of literal weights, where variable
// vars()[j] is true with probability prob_of_var[vars()[j]].
double EnumeratedWmc(const BoolFunc& f, const std::vector<double>& prob_of_var) {
  double total = 0.0;
  for (uint32_t index = 0; index < f.table_size(); ++index) {
    if (!f.EvalIndex(index)) continue;
    double weight = 1.0;
    for (int j = 0; j < f.num_vars(); ++j) {
      const double p = prob_of_var[f.vars()[j]];
      weight *= ((index >> j) & 1) != 0 ? p : 1.0 - p;
    }
    total += weight;
  }
  return total;
}

// The weight of each slot, read from per-variable probabilities.
std::vector<double> SlotProbs(std::span<const int> slot_vars,
                              const std::vector<double>& prob_of_var) {
  std::vector<double> probs;
  for (const int v : slot_vars) probs.push_back(prob_of_var[v]);
  return probs;
}

double Eval(const WmcTape& tape, const std::vector<double>& probs) {
  std::vector<double> values;
  return tape.Evaluate(probs, &values);
}

TEST(WmcTapeTest, RandomFunctionsMatchEnumerationOnBothRoutes) {
  Rng rng(17);
  for (int n = 1; n <= 12; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
      std::vector<double> prob_of_var(n);
      for (double& p : prob_of_var) p = rng.NextDouble();
      const double expected = EnumeratedWmc(f, prob_of_var);

      const std::vector<int> order = rng.Permutation(n);
      ObddManager obdd(order);
      const auto obdd_root = CompileFuncToObdd(&obdd, f);
      const WmcTape obdd_tape = obdd.BuildWmcTape(obdd_root);
      EXPECT_NEAR(Eval(obdd_tape, SlotProbs(order, prob_of_var)), expected,
                  1e-12)
          << "obdd n=" << n << " trial " << trial;

      SddManager sdd(Vtree::Random(Iota(n), &rng));
      const auto sdd_root = CompileFuncToSdd(&sdd, f);
      // Slots in a shuffled order: the tape must map each literal to its
      // own variable's slot, not to its position in the vtree.
      const std::vector<int> slot_vars = rng.Permutation(n);
      const WmcTape sdd_tape = sdd.BuildWmcTape(sdd_root, slot_vars);
      EXPECT_EQ(sdd_tape.num_decisions(),
                static_cast<size_t>(sdd.NumDecisions(sdd_root)));
      EXPECT_NEAR(Eval(sdd_tape, SlotProbs(slot_vars, prob_of_var)), expected,
                  1e-12)
          << "sdd n=" << n << " trial " << trial;
    }
  }
}

TEST(WmcTapeTest, ObddAndSddTapesAgreeOnOneLineage) {
  const Database db = BipartiteRstDatabase(4, 0.3);
  Rng rng(5);
  for (const Ucq& query : {HierarchicalRSQuery(), NonHierarchicalH0Query(),
                           InequalityExampleQuery()}) {
    const auto lineage = BuildLineage(query, db);
    ASSERT_TRUE(lineage.ok()) << lineage.status().ToString();
    const std::vector<int> vars = lineage->Vars();
    ObddManager obdd(vars);
    const WmcTape obdd_tape =
        obdd.BuildWmcTape(CompileCircuitToObdd(&obdd, *lineage));
    SddManager sdd(Vtree::Balanced(vars));
    const WmcTape sdd_tape =
        sdd.BuildWmcTape(CompileCircuitToSdd(&sdd, *lineage), vars);
    for (int draw = 0; draw < 8; ++draw) {
      std::vector<double> probs(vars.size());
      for (double& p : probs) p = rng.NextDouble();
      EXPECT_NEAR(Eval(obdd_tape, probs), Eval(sdd_tape, probs), 1e-12);
    }
  }
}

TEST(WmcTapeTest, ConstantAndLiteralRoots) {
  const std::vector<double> probs = {0.25, 0.75, 0.5};
  EXPECT_EQ(Eval(WmcTape::Constant(false), {}), 0.0);
  EXPECT_EQ(Eval(WmcTape::Constant(true), {}), 1.0);

  ObddManager obdd(Iota(3));
  EXPECT_EQ(Eval(obdd.BuildWmcTape(obdd.False()), probs), 0.0);
  EXPECT_EQ(Eval(obdd.BuildWmcTape(obdd.True()), probs), 1.0);
  EXPECT_EQ(Eval(obdd.BuildWmcTape(obdd.Literal(1, true)), probs), 0.75);
  EXPECT_EQ(Eval(obdd.BuildWmcTape(obdd.Literal(1, false)), probs), 0.25);

  SddManager sdd(Vtree::Balanced(Iota(3)));
  const std::vector<int> vars = Iota(3);
  EXPECT_EQ(Eval(sdd.BuildWmcTape(sdd.False(), vars), probs), 0.0);
  EXPECT_EQ(Eval(sdd.BuildWmcTape(sdd.True(), vars), probs), 1.0);
  const WmcTape positive = sdd.BuildWmcTape(sdd.Literal(2, true), vars);
  EXPECT_EQ(positive.num_decisions(), 0u);
  EXPECT_EQ(Eval(positive, probs), 0.5);
  EXPECT_EQ(Eval(sdd.BuildWmcTape(sdd.Literal(0, false), vars), probs), 0.75);
}

// Weights of exactly 0 and 1 pick one world: the tape then reads the
// function's value at that assignment, exactly.
TEST(WmcTapeTest, ZeroOneWeightsEvaluateTheFunction) {
  Rng rng(23);
  const int n = 8;
  const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
  ObddManager obdd(Iota(n));
  const WmcTape obdd_tape = obdd.BuildWmcTape(CompileFuncToObdd(&obdd, f));
  SddManager sdd(Vtree::Random(Iota(n), &rng));
  const WmcTape sdd_tape =
      sdd.BuildWmcTape(CompileFuncToSdd(&sdd, f), Iota(n));
  for (uint32_t index = 0; index < f.table_size(); index += 7) {
    std::vector<double> probs(n);
    for (int j = 0; j < n; ++j) probs[j] = (index >> j) & 1;
    const double expected = f.EvalIndex(index) ? 1.0 : 0.0;
    EXPECT_EQ(Eval(obdd_tape, probs), expected) << index;
    EXPECT_EQ(Eval(sdd_tape, probs), expected) << index;
  }
}

// Subs normalized strictly below their parent's right vtree child: the
// vnode-keyed recursion evaluated such a sub "at" the right child; the
// tape gives it one entry, because a node's probability does not depend
// on the scope it is read in.
TEST(WmcTapeTest, SubsBelowTheRightVtreeChild) {
  Vtree vtree;
  const int x0 = vtree.AddLeaf(0);
  const int x12 = vtree.AddInternal(vtree.AddLeaf(1), vtree.AddLeaf(2));
  const int right = vtree.AddInternal(x12, vtree.AddLeaf(3));
  vtree.SetRoot(vtree.AddInternal(x0, right));
  SddManager m(vtree);
  const auto a = m.Literal(0, true);
  const auto b = m.Literal(1, true);
  const auto c = m.Literal(2, true);
  // x0 ? (x1 | x2) : (x1 & x2), over {x0..x3}.
  const auto root =
      m.Or(m.And(a, m.Or(b, c)), m.And(m.Not(a), m.And(b, c)));
  ASSERT_EQ(m.VtreeOf(root), m.vtree().root());
  int deep_subs = 0;
  for (const auto& [p, s] : m.elements(root)) {
    if (m.node(s).kind == SddManager::Kind::kDecision &&
        m.VtreeOf(s) != right) {
      EXPECT_EQ(m.VtreeOf(s), x12);
      ++deep_subs;
    }
  }
  ASSERT_EQ(deep_subs, 2);

  const std::vector<double> prob_of_var = {0.3, 0.6, 0.2, 0.9};
  const WmcTape tape = m.BuildWmcTape(root, Iota(4));
  EXPECT_EQ(tape.num_decisions(), 3u);
  EXPECT_NEAR(Eval(tape, prob_of_var),
              EnumeratedWmc(m.ToBoolFunc(root), prob_of_var), 1e-12);
  EXPECT_NEAR(Eval(tape, prob_of_var),
              0.3 * (1 - 0.4 * 0.8) + 0.7 * (0.6 * 0.2), 1e-12);
}

}  // namespace
}  // namespace ctsdd
