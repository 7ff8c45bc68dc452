#include <algorithm>

#include "circuit/builder.h"
#include "circuit/families.h"
#include "func/bool_func.h"
#include "func/factor.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace ctsdd {
namespace {

BoolFunc Implication() {
  // F(x0, x1) = x0 -> x1, the running example of Section 3.1.
  Circuit c;
  ExprFactory f(&c);
  f.SetOutput((!f.Var(0)) | f.Var(1));
  return BoolFunc::FromCircuit(c);
}

TEST(BoolFuncTest, ConstantsAndLiterals) {
  EXPECT_TRUE(BoolFunc::Constant(true).IsConstantTrue());
  EXPECT_TRUE(BoolFunc::Constant(false).IsConstantFalse());
  const BoolFunc x = BoolFunc::Literal(3, true);
  EXPECT_EQ(x.CountModels(), 1u);
  EXPECT_TRUE(x.EvalIndex(1));
  EXPECT_FALSE(x.EvalIndex(0));
  const BoolFunc nx = BoolFunc::Literal(3, false);
  EXPECT_TRUE((x & nx).IsConstantFalse());
  EXPECT_TRUE((x | nx).IsConstantTrue());
}

TEST(BoolFuncTest, FromCircuitMatchesEvaluation) {
  const Circuit c = ParityCircuit(5);
  const BoolFunc f = BoolFunc::FromCircuit(c);
  EXPECT_EQ(f.CountModels(), 16u);
  EXPECT_TRUE(f.EvalIndex(0b00001));
  EXPECT_FALSE(f.EvalIndex(0b00011));
}

TEST(BoolFuncTest, RestrictImplication) {
  const BoolFunc f = Implication();
  // F(0, x1) = TOP, F(1, x1) = x1 (Example 1).
  EXPECT_TRUE(f.Restrict(0, false).IsConstantTrue());
  EXPECT_TRUE(f.Restrict(0, true) == BoolFunc::Literal(1, true));
  // F(x0, 0) = !x0, F(x0, 1) = TOP.
  EXPECT_TRUE(f.Restrict(1, false) == BoolFunc::Literal(0, false));
  EXPECT_TRUE(f.Restrict(1, true).IsConstantTrue());
}

TEST(BoolFuncTest, ExpandAndShrinkInverse) {
  const BoolFunc x = BoolFunc::Literal(2, true);
  const BoolFunc expanded = x.ExpandTo({0, 2, 5});
  EXPECT_EQ(expanded.num_vars(), 3);
  EXPECT_EQ(expanded.CountModels(), 4u);
  const BoolFunc shrunk = expanded.Shrink();
  EXPECT_TRUE(shrunk == x);
}

TEST(BoolFuncTest, OperatorsAlignVariableSets) {
  const BoolFunc a = BoolFunc::Literal(0, true);
  const BoolFunc b = BoolFunc::Literal(1, true);
  const BoolFunc both = a & b;
  EXPECT_EQ(both.vars(), (std::vector<int>{0, 1}));
  EXPECT_EQ(both.CountModels(), 1u);
  EXPECT_EQ((a | b).CountModels(), 3u);
  EXPECT_EQ((a ^ b).CountModels(), 2u);
}

TEST(BoolFuncTest, NegationCounts) {
  Rng rng(7);
  const BoolFunc f = BoolFunc::Random({0, 1, 2, 3, 4}, &rng);
  EXPECT_EQ(f.CountModels() + (~f).CountModels(), 32u);
  EXPECT_TRUE((f & ~f).IsConstantFalse());
  EXPECT_TRUE((f | ~f).IsConstantTrue());
}

TEST(BoolFuncTest, DependsOnPosition) {
  const BoolFunc x = BoolFunc::Literal(1, true).ExpandTo({0, 1});
  EXPECT_FALSE(x.DependsOnPosition(0));
  EXPECT_TRUE(x.DependsOnPosition(1));
}

TEST(BoolFuncTest, HashDistinguishes) {
  const BoolFunc a = BoolFunc::Literal(0, true);
  const BoolFunc b = BoolFunc::Literal(0, false);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_EQ(a.Hash(), BoolFunc::Literal(0, true).Hash());
}

// words() is the packed table: a cofactor over at most 6 variables can be
// gathered from it bit by bit, and equals CofactorsOver's table word; the
// first-occurrence grouping of those words is CofactorsOver's grouping.
TEST(BoolFuncTest, WordsYieldCofactorsOverClasses) {
  Rng rng(31);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + trial % 11;  // 2..12 variables
    std::vector<int> vars;
    for (int v = 0; static_cast<int>(vars.size()) < n; ++v) {
      if (rng.NextBool()) vars.push_back(v);
    }
    const BoolFunc f = BoolFunc::Random(vars, &rng);
    ASSERT_EQ(f.words().size(), (f.table_size() + 63) / 64);
    for (uint32_t i = 0; i < f.table_size(); ++i) {
      ASSERT_EQ((f.words()[i / 64] >> (i % 64)) & 1, f.EvalIndex(i) ? 1u : 0u);
    }
    // At most 6 of the positions stay free; the rest are assigned.
    std::vector<int> on, pos_on, pos_rest;
    for (int p = 0; p < n; ++p) {
      if (n - p > 6 ? rng.NextBool(0.8) : rng.NextBool(0.3)) {
        on.push_back(vars[p]);
        pos_on.push_back(p);
      } else {
        pos_rest.push_back(p);
      }
    }
    if (on.empty() || pos_rest.empty() || pos_rest.size() > 6) continue;
    const std::vector<BoolFunc> cofactors = f.CofactorsOver(on);
    std::vector<uint64_t> class_words;
    std::vector<int> class_of;  // per assignment, in first-occurrence order
    std::vector<int> expected_class_of;
    for (uint32_t a = 0; a < cofactors.size(); ++a) {
      uint32_t base = 0;
      for (size_t j = 0; j < pos_on.size(); ++j) {
        if ((a >> j) & 1) base |= 1u << pos_on[j];
      }
      uint64_t w = 0;
      for (uint32_t b = 0; b < (1u << pos_rest.size()); ++b) {
        uint32_t i = base;
        for (size_t j = 0; j < pos_rest.size(); ++j) {
          if ((b >> j) & 1) i |= 1u << pos_rest[j];
        }
        w |= ((f.words()[i / 64] >> (i % 64)) & 1) << b;
      }
      ASSERT_EQ(cofactors[a].words().size(), 1u);
      EXPECT_EQ(w, cofactors[a].words()[0]) << "trial " << trial;
      const auto it = std::find(class_words.begin(), class_words.end(), w);
      class_of.push_back(static_cast<int>(it - class_words.begin()));
      if (it == class_words.end()) class_words.push_back(w);
      int c = 0;
      while (!(cofactors[c] == cofactors[a])) ++c;
      expected_class_of.push_back(c);
    }
    // Renumber the expected classes (first member index) in first-
    // occurrence order and compare.
    std::vector<int> renumber(cofactors.size(), -1);
    int next = 0;
    for (int& c : expected_class_of) {
      if (renumber[c] < 0) renumber[c] = next++;
      c = renumber[c];
    }
    EXPECT_EQ(class_of, expected_class_of) << "trial " << trial;
    ++checked;
  }
  EXPECT_GE(checked, 40);
}

// --- Factor machinery (Definition 1, Examples 1-4) ---

TEST(FactorTest, ImplicationFactorsRelativeToX) {
  const BoolFunc f = Implication();
  const FactorSet fs = ComputeFactors(f, {0});
  // Example 3: the factors of F relative to x are x and !x.
  ASSERT_EQ(fs.size(), 2);
  std::vector<BoolFunc> expected = {BoolFunc::Literal(0, false),
                                    BoolFunc::Literal(0, true)};
  EXPECT_TRUE((fs.factors[0] == expected[0] && fs.factors[1] == expected[1]) ||
              (fs.factors[0] == expected[1] && fs.factors[1] == expected[0]));
  // The factor x induces cofactor x1; the factor !x induces TOP.
  for (int i = 0; i < fs.size(); ++i) {
    if (fs.factors[i] == BoolFunc::Literal(0, true)) {
      EXPECT_TRUE(fs.cofactors[i] == BoolFunc::Literal(1, true));
    } else {
      EXPECT_TRUE(fs.cofactors[i].IsConstantTrue());
    }
  }
}

TEST(FactorTest, FactorsPartitionTheCube) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const BoolFunc f = BoolFunc::Random({0, 1, 2, 3, 4, 5}, &rng);
    const FactorSet fs = ComputeFactors(f, {1, 3, 4});
    // Equation (10): factor model sets partition {0,1}^{Y}.
    uint64_t total = 0;
    for (int i = 0; i < fs.size(); ++i) {
      total += fs.factors[i].CountModels();
      for (int j = i + 1; j < fs.size(); ++j) {
        EXPECT_TRUE((fs.factors[i] & fs.factors[j]).IsConstantFalse());
      }
    }
    EXPECT_EQ(total, 8u);
  }
}

TEST(FactorTest, FactorsIgnoreForeignVariables) {
  // Equation (9): factors(F, Y) = factors(F, Y ∩ X).
  const BoolFunc f = Implication();
  const FactorSet a = ComputeFactors(f, {0});
  const FactorSet b = ComputeFactors(f, {0, 17, 99});
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.y_vars, b.y_vars);
}

TEST(FactorTest, FactorOfIndexConsistent) {
  Rng rng(13);
  const BoolFunc f = BoolFunc::Random({0, 1, 2, 3}, &rng);
  const FactorSet fs = ComputeFactors(f, {0, 2});
  ASSERT_EQ(fs.factor_of_index.size(), 4u);
  for (uint32_t a = 0; a < 4; ++a) {
    EXPECT_TRUE(fs.factors[fs.factor_of_index[a]].EvalIndex(a));
  }
}

TEST(FactorTest, RectangleDichotomyLemma2) {
  // Lemma 2: the rectangle of two factors is contained in or disjoint from
  // every factor of F relative to the union.
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const BoolFunc f = BoolFunc::Random({0, 1, 2, 3, 4, 5}, &rng);
    const std::vector<int> y = {0, 1};
    const std::vector<int> yp = {2, 3};
    std::vector<int> yu = {0, 1, 2, 3};
    const FactorSet fy = ComputeFactors(f, y);
    const FactorSet fyp = ComputeFactors(f, yp);
    const FactorSet fu = ComputeFactors(f, yu);
    for (int i = 0; i < fy.size(); ++i) {
      for (int j = 0; j < fyp.size(); ++j) {
        const BoolFunc rect =
            (fy.factors[i] & fyp.factors[j]).ExpandTo(yu);
        for (int h = 0; h < fu.size(); ++h) {
          const BoolFunc overlap = rect & fu.factors[h];
          // Contained or disjoint.
          EXPECT_TRUE(overlap.IsConstantFalse() || overlap == rect);
        }
      }
    }
  }
}

TEST(FactorTest, ImplicantTargetMatchesSemantics) {
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    const BoolFunc f = BoolFunc::Random({0, 1, 2, 3, 4}, &rng);
    const FactorSet fy = ComputeFactors(f, {0, 1});
    const FactorSet fyp = ComputeFactors(f, {2, 3});
    const FactorSet fu = ComputeFactors(f, {0, 1, 2, 3});
    for (int i = 0; i < fy.size(); ++i) {
      for (int j = 0; j < fyp.size(); ++j) {
        const int h = ImplicantTarget(f, fy, i, fyp, j, fu);
        const BoolFunc rect =
            (fy.factors[i] & fyp.factors[j]).ExpandTo(fu.y_vars);
        EXPECT_TRUE((rect & fu.factors[h]) == rect);
      }
    }
  }
}

TEST(FactorTest, AllImplicantsCoverEveryFactorDisjointly) {
  // Lemma 3: implicants of H form a disjoint rectangle cover of H.
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const BoolFunc f = BoolFunc::Random({0, 1, 2, 3, 4, 5}, &rng);
    const FactorSet fy = ComputeFactors(f, {0, 1, 2});
    const FactorSet fyp = ComputeFactors(f, {3, 4, 5});
    const FactorSet fu = ComputeFactors(f, {0, 1, 2, 3, 4, 5});
    const auto implicants = AllImplicants(f, fy, fyp, fu);
    ASSERT_EQ(static_cast<int>(implicants.size()), fu.size());
    for (int h = 0; h < fu.size(); ++h) {
      BoolFunc cover = BoolFunc::ConstantOver(fu.y_vars, false);
      for (const auto& [i, j] : implicants[h]) {
        const BoolFunc rect =
            (fy.factors[i] & fyp.factors[j]).ExpandTo(fu.y_vars);
        EXPECT_TRUE((cover & rect).IsConstantFalse()) << "overlap";
        cover = cover | rect;
      }
      EXPECT_TRUE(cover == fu.factors[h]);
    }
  }
}

TEST(FactorTest, ParityHasTwoFactorsEverywhere) {
  // Parity: any restriction set yields exactly two cofactors.
  const BoolFunc f = BoolFunc::FromCircuit(ParityCircuit(6));
  EXPECT_EQ(CountFactors(f, {0}), 2);
  EXPECT_EQ(CountFactors(f, {0, 1, 2}), 2);
  EXPECT_EQ(CountFactors(f, {0, 1, 2, 3, 4}), 2);
}

TEST(FactorTest, DisjointnessFactorCountsGrowExponentially) {
  // factors(D_n, X_n) has 2^n elements: each subset of X chosen true
  // forces a distinct cofactor over Y.
  for (int n = 1; n <= 4; ++n) {
    const BoolFunc f = BoolFunc::FromCircuit(DisjointnessCircuit(n));
    std::vector<int> x_vars;
    for (int i = 0; i < n; ++i) x_vars.push_back(i);
    EXPECT_EQ(CountFactors(f, x_vars), 1 << n) << "n=" << n;
  }
}

}  // namespace
}  // namespace ctsdd
