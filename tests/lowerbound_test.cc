#include <algorithm>
#include <vector>

#include "circuit/families.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "lowerbound/comm_matrix.h"
#include "lowerbound/rank.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/random.h"
#include "vtree/vtree.h"

namespace ctsdd {
namespace {

TEST(CommMatrixTest, BuildsCorrectEntries) {
  // f = x0 AND x2 over partition ({0}, {2}).
  const BoolFunc f = BoolFunc::Literal(0, true) & BoolFunc::Literal(2, true);
  const CommMatrix m = BuildCommMatrix(f, {0}, {2});
  EXPECT_EQ(m.rows, 2);
  EXPECT_EQ(m.cols, 2);
  EXPECT_EQ(m.at(0, 0), 0.0);
  EXPECT_EQ(m.at(1, 1), 1.0);
  EXPECT_EQ(m.at(0, 1), 0.0);
  EXPECT_EQ(m.at(1, 0), 0.0);
}

TEST(RankTest, SimpleRanks) {
  CommMatrix identity;
  identity.rows = identity.cols = 4;
  identity.data.assign(16, 0.0);
  for (int i = 0; i < 4; ++i) identity.at(i, i) = 1.0;
  EXPECT_EQ(MatrixRank(identity), 4);

  CommMatrix ones;
  ones.rows = ones.cols = 4;
  ones.data.assign(16, 1.0);
  EXPECT_EQ(MatrixRank(ones), 1);

  CommMatrix zero;
  zero.rows = zero.cols = 3;
  zero.data.assign(9, 0.0);
  EXPECT_EQ(MatrixRank(zero), 0);
}

TEST(RankTest, RectangularMatrix) {
  CommMatrix m;
  m.rows = 2;
  m.cols = 3;
  m.data = {1, 0, 1,   //
            0, 1, 1};
  EXPECT_EQ(MatrixRank(m), 2);
}

TEST(DisjointnessTest, RankIsTwoToTheN) {
  // Equation (8): rank(cm(D_n, X_n, Y_n)) = 2^n.
  for (int n = 1; n <= 8; ++n) {
    EXPECT_EQ(DisjointnessRank(n), 1 << n) << "n=" << n;
  }
}

TEST(DisjointnessTest, ComplementRankAtLeastAlmostFull) {
  // rank(1 - cm) >= 2^n - 1 (the Claim 3 computation in Theorem 5).
  const int n = 5;
  const BoolFunc f = BoolFunc::FromCircuit(IntersectionCircuit(n));
  std::vector<int> x_vars;
  std::vector<int> y_vars;
  for (int i = 0; i < n; ++i) {
    x_vars.push_back(i);
    y_vars.push_back(n + i);
  }
  EXPECT_GE(CoverLowerBound(f, x_vars, y_vars), (1 << n) - 1);
}

TEST(RankTest, ParityCommunicationRankIsTwo) {
  const BoolFunc f = BoolFunc::FromCircuit(ParityCircuit(6));
  EXPECT_EQ(CoverLowerBound(f, {0, 1, 2}, {3, 4, 5}), 2);
}

TEST(RankTest, RandomFunctionRankBounds) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const BoolFunc f = BoolFunc::Random({0, 1, 2, 3, 4, 5}, &rng);
    const int rank = CoverLowerBound(f, {0, 1, 2}, {3, 4, 5});
    EXPECT_GE(rank, 0);
    EXPECT_LE(rank, 8);
  }
}

TEST(RankTest, HChainCofactorRank) {
  // The restricted intersection-like slices of H^i functions have nearly
  // full rank across the (left-block, right-block) partition — the engine
  // of Lemma 8.
  const int n = 3;
  const Circuit h0 = HChainCircuit(1, n, 0);
  const HFamilyVars vars{1, n};
  // Restrict z^1_{l,m} = 0 except the diagonal z^1_{l,l}; the remaining
  // function is OR_l (x_l & z_{l,l}) — an intersection function of size n.
  BoolFunc f = BoolFunc::FromCircuit(h0);
  for (int l = 1; l <= n; ++l) {
    for (int m = 1; m <= n; ++m) {
      if (l != m) f = f.Restrict(vars.Z(1, l, m), false);
    }
  }
  std::vector<int> x_vars;
  std::vector<int> z_diag;
  for (int l = 1; l <= n; ++l) {
    x_vars.push_back(vars.X(l));
    z_diag.push_back(vars.Z(1, l, l));
  }
  EXPECT_GE(CoverLowerBound(f, x_vars, z_diag), (1 << n) - 1);
}

// Vtree pairing x_i with y_i, combined left to right.
Vtree PairedVtree(int n) {
  Vtree vt;
  int acc = -1;
  for (int i = 0; i < n; ++i) {
    const int pair = vt.AddInternal(vt.AddLeaf(i), vt.AddLeaf(n + i));
    acc = acc < 0 ? pair : vt.AddInternal(acc, pair);
  }
  vt.SetRoot(acc);
  return vt;
}

TEST(DisjointnessTest, SeparatingVtreeForcesExponentialSdd) {
  // The SDD consequence of equation (8): on a vtree whose root separates
  // X from Y, D_n's SDD has at least rank = 2^n elements (measured 2, 14,
  // ..., 2764 for n = 1..9), while the vtree pairing x_i with y_i gives
  // exactly 8(n - 1) for n >= 2.
  for (int n = 1; n <= 9; ++n) {
    const Circuit c = DisjointnessCircuit(n);
    SddManager separated(Vtree::Balanced(c.Vars()));
    EXPECT_GE(separated.Size(CompileCircuitToSdd(&separated, c)), 1 << n)
        << "n=" << n;
    if (n >= 2) {
      SddManager paired(PairedVtree(n));
      EXPECT_EQ(paired.Size(CompileCircuitToSdd(&paired, c)), 8 * (n - 1))
          << "n=" << n;
    }
  }
}

// Balanced combination of vtree subtrees.
int CombineBalanced(Vtree* vt, std::vector<int> roots) {
  while (roots.size() > 1) {
    std::vector<int> next;
    for (size_t i = 0; i + 1 < roots.size(); i += 2) {
      next.push_back(vt->AddInternal(roots[i], roots[i + 1]));
    }
    if (roots.size() % 2 == 1) next.push_back(roots.back());
    roots = std::move(next);
  }
  return roots[0];
}

// The X block, one subtree per chain cell (l, m) over z^1_{l,m} ..
// z^k_{l,m}, then the Y block: the grouping that makes every middle layer
// H^i, 0 < i < k, linear.
Vtree CellGroupedVtree(int k, int n) {
  const HFamilyVars vars{k, n};
  Vtree vt;
  std::vector<int> blocks;
  for (int l = 1; l <= n; ++l) blocks.push_back(vt.AddLeaf(vars.X(l)));
  for (int l = 1; l <= n; ++l) {
    for (int m = 1; m <= n; ++m) {
      std::vector<int> cell;
      for (int i = 1; i <= k; ++i) cell.push_back(vt.AddLeaf(vars.Z(i, l, m)));
      blocks.push_back(CombineBalanced(&vt, cell));
    }
  }
  for (int m = 1; m <= n; ++m) blocks.push_back(vt.AddLeaf(vars.Y(m)));
  vt.SetRoot(CombineBalanced(&vt, blocks));
  return vt;
}

TEST(InversionLowerBoundTest, Lemma8MaxLayerSddGrowsOnEveryVtree) {
  // Theorem 5 / Lemma 8 for inversion length k = 1: on any vtree over the
  // shared variables, some layer H^i needs an SDD of size 2^{Omega(n/k)}.
  // The minimum over the right-linear, balanced and cell-grouped vtrees
  // of max_i |SDD(H^i)| (measured 16, 70, 244, 754, 2160 for n = 2..6)
  // grows at least 2.5x per step. The per-step growth carries the
  // theorem's exponential shape; at this scale 2^{n/5k} is below 3, so the
  // absolute bound is not asserted.
  const int k = 1;
  int prev = 0;
  for (int n = 2; n <= 6; ++n) {
    std::vector<int> vars(HFamilyVars{k, n}.TotalVars());
    for (size_t v = 0; v < vars.size(); ++v) vars[v] = static_cast<int>(v);
    int min_max = -1;
    for (const Vtree& vt : {Vtree::RightLinear(vars), Vtree::Balanced(vars),
                            CellGroupedVtree(k, n)}) {
      int max_size = 0;
      for (int i = 0; i <= k; ++i) {
        SddManager manager(vt);
        const auto root = CompileCircuitToSdd(&manager, HChainCircuit(k, n, i));
        max_size = std::max(max_size, manager.Size(root));
      }
      min_max = min_max < 0 ? max_size : std::min(min_max, max_size);
    }
    if (prev > 0) {
      EXPECT_GE(min_max, 2.5 * prev) << "n=" << n;
    }
    prev = min_max;
  }
}

}  // namespace
}  // namespace ctsdd
