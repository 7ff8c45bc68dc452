// Cross-module integration tests: full pipelines from circuits/queries
// through decompositions, vtrees, and all compiled forms, with semantic
// cross-checks between every route.

#include <cmath>
#include <map>

#include "circuit/builder.h"
#include "circuit/eval.h"
#include "circuit/families.h"
#include "circuit/io.h"
#include "circuit/primal_graph.h"
#include "circuit/tseitin.h"
#include "compile/factor_compile.h"
#include "compile/pipeline.h"
#include "compile/sdd_canonical.h"
#include "db/inversion.h"
#include "db/lineage.h"
#include "db/query_compile.h"
#include "func/bool_func.h"
#include "graph/path_decomposition.h"
#include "gtest/gtest.h"
#include "nnf/checks.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd_compile.h"
#include "util/random.h"
#include "vtree/from_decomposition.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(IntegrationTest, AllCompilationRoutesAgreeOnModelCounts) {
  // circuit -> {brute force, OBDD, SDD(manager), C_{F,T}, S_{F,T}} must
  // agree on the model count.
  Rng rng(101);
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit circuit = LadderCircuit(3 + trial % 2, 2);
    const int n = static_cast<int>(circuit.Vars().size());
    const uint64_t brute = BruteForceModelCount(circuit);
    // OBDD.
    ObddManager obdd(circuit.Vars());
    EXPECT_EQ(obdd.CountModels(CompileCircuitToObdd(&obdd, circuit)), brute);
    // SDD on the Lemma 1 vtree.
    const auto pipeline = CompileWithTreewidth(circuit);
    ASSERT_TRUE(pipeline.ok());
    EXPECT_EQ(pipeline->manager->CountModels(pipeline->root), brute);
    // Factor-based constructions.
    const BoolFunc f = BoolFunc::FromCircuit(circuit);
    const auto cft = CompileFactorNnf(f, pipeline->vtree);
    EXPECT_EQ(BoolFunc::FromCircuitOver(cft.circuit, circuit.Vars())
                  .CountModels(),
              brute);
    const auto sft = CompileCanonicalSdd(f, pipeline->vtree);
    EXPECT_EQ(BoolFunc::FromCircuitOver(sft.circuit, circuit.Vars())
                  .CountModels(),
              brute);
    (void)n;
  }
}

TEST(IntegrationTest, SerializedCircuitSurvivesPipeline) {
  const Circuit original = TreeCnfCircuit(4);
  const auto parsed = ParseCircuit(SerializeCircuit(original));
  ASSERT_TRUE(parsed.ok());
  const auto a = CompileWithTreewidth(original);
  const auto b = CompileWithTreewidth(parsed.value());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->manager->CountModels(a->root),
            b->manager->CountModels(b->root));
}

TEST(IntegrationTest, PathwidthRouteProducesObddLikeSdd) {
  // The construction on a right-linear (path) vtree specializes to an
  // OBDD: widths on both sides match for the banded family.
  for (int n = 4; n <= 8; ++n) {
    const Circuit c = BandedCnfCircuit(n, 2);
    const BoolFunc f = BoolFunc::FromCircuit(c);
    const Vtree linear = Vtree::RightLinear(c.Vars());
    SddManager sdd(linear);
    const auto sdd_root = CompileCircuitToSdd(&sdd, c);
    ObddManager obdd(c.Vars());
    const auto obdd_root = CompileCircuitToObdd(&obdd, c);
    EXPECT_EQ(sdd.CountModels(sdd_root), obdd.CountModels(obdd_root));
    // SDD width on a linear vtree within a small factor of OBDD width.
    EXPECT_LE(sdd.Width(sdd_root), 2 * (obdd.Width(obdd_root) + 1));
  }
}

TEST(IntegrationTest, QueryToProbabilityEndToEnd) {
  // Probabilistic query evaluation via every compilation strategy agrees
  // with brute-force enumeration, on hierarchical and inversion queries.
  std::vector<Ucq> queries = {HierarchicalRSQuery(),
                              NonHierarchicalH0Query(),
                              InversionChainUcq(1)};
  std::vector<Database> databases;
  databases.push_back(BipartiteRstDatabase(2, 0.3));
  databases.push_back(ChainDatabase(1, 2, 0.6));
  for (const Ucq& q : queries) {
    for (const Database& db : databases) {
      const auto lineage = BuildLineage(q, db);
      if (!lineage.ok()) continue;  // query/database schema mismatch
      const auto brute = BruteForceQueryProbability(q, db);
      ASSERT_TRUE(brute.ok());
      const auto comp = CompileQuery(q, db, VtreeStrategy::kFromTreewidth);
      ASSERT_TRUE(comp.ok()) << comp.status();
      EXPECT_NEAR(comp->probability, brute.value(), 1e-9);
    }
  }
}

TEST(IntegrationTest, InversionLineageCompilesButGrows) {
  // Theorem 5 on the balanced vtree, Figs 2 and 3: lineages of a query
  // with an inversion grow at least 3x per domain element (measured 71,
  // 433, 1763, 9721 for the chain query; 76, 374, 1470, 7041 with the
  // inequality disjunct R(x), R(x'), x != x'), with or without
  // inequalities. The hierarchical query grows 10x over the whole sweep
  // (14 to 143), less than the 27x three such steps force.
  Ucq with_inequality = InversionChainUcq(1);
  ConjunctiveQuery extra;
  extra.atoms.push_back({"R", {0}});
  extra.atoms.push_back({"R", {2}});
  extra.inequalities.push_back({0, 2});
  with_inequality.disjuncts.push_back(extra);
  for (const Ucq& q : {InversionChainUcq(1), with_inequality}) {
    int prev_size = 0;
    for (int n = 2; n <= 5; ++n) {
      const auto comp =
          CompileQuery(q, ChainDatabase(1, n), VtreeStrategy::kBalanced);
      ASSERT_TRUE(comp.ok()) << comp.status();
      if (prev_size > 0) {
        EXPECT_GE(comp->sdd_size, 3 * prev_size)
            << q.DebugString() << " n=" << n;
      }
      prev_size = comp->sdd_size;
    }
  }
  std::vector<int> hier_sizes;
  for (int n = 2; n <= 5; ++n) {
    Database db;
    db.AddRelation("R", 1);
    db.AddRelation("S", 2);
    for (int l = 1; l <= n; ++l) {
      db.AddTuple("R", {l}, 0.5);
      for (int m = 1; m <= n; ++m) db.AddTuple("S", {l, m}, 0.5);
    }
    const auto comp =
        CompileQuery(HierarchicalRSQuery(), db, VtreeStrategy::kBalanced);
    ASSERT_TRUE(comp.ok());
    hier_sizes.push_back(comp->sdd_size);
  }
  EXPECT_LT(hier_sizes.back(), 27 * hier_sizes.front());
}

TEST(IntegrationTest, NiceDecompositionVtreeFactorBound) {
  // Lemma 1 (quantitative): with a width-w decomposition of the circuit,
  // every vtree node's factor count obeys the 2^{(w+2) 2^{w+1}} bound —
  // astronomically loose, so check the much stronger empirical property
  // that factor counts stay far below the trivial 2^{2^|X_v|} explosion
  // and are bounded across n for the fixed-width family.
  int max_factors = 0;
  for (int n = 3; n <= 6; ++n) {
    const Circuit c = LadderCircuit(n, 2);
    const auto pipeline = CompileWithTreewidth(c);
    ASSERT_TRUE(pipeline.ok());
    const BoolFunc f = BoolFunc::FromCircuit(c);
    const auto comp = CompileFactorNnf(f, pipeline->vtree);
    max_factors = std::max(max_factors, comp.fw);
  }
  EXPECT_LE(max_factors, 16);
}

TEST(IntegrationTest, DeterministicStructuredChecksOnPipelineOutput) {
  Rng rng(7);
  const Circuit c = TreeCnfCircuit(4);
  const auto pipeline = CompileWithTreewidth(c);
  ASSERT_TRUE(pipeline.ok());
  const BoolFunc f = BoolFunc::FromCircuit(c);
  const auto cft = CompileFactorNnf(f, pipeline->vtree);
  EXPECT_TRUE(CheckDeterministicStructuredNnf(cft.circuit,
                                              pipeline->vtree)
                  .ok());
}

// Variable order read off the BFS path layout of the primal graph.
std::vector<int> PathLayoutOrder(const Circuit& c) {
  std::vector<int> order;
  for (const int gate : BfsLayout(PrimalGraph(c))) {
    if (c.gate(gate).kind == GateKind::kVar) order.push_back(c.gate(gate).var);
  }
  return order;
}

TEST(PanoramaTest, PathLayoutObddWidthConstantOnBandedCnf) {
  // Bound (2) and Fig 1's CPW(O(1)) = OBDD(O(1)) region: on the path
  // layout order of a banded CNF, the OBDD width saturates at band^3 and
  // from then on every variable adds exactly `width` nodes (64 / 216 / 512
  // per 8 variables). Measured sizes at saturation: 81, 131, 491. The
  // reversed layout saturates at the same widths but later (18 at n = 16
  // for band 3) and with different sizes; an interleaved order has width
  // 54,324 at n = 40, band 2.
  struct Band {
    int band;
    int saturated;  // first n with the final width
    int width;
    int saturated_size;
  };
  for (const Band& b :
       {Band{2, 16, 8, 81}, Band{3, 16, 27, 131}, Band{4, 24, 64, 491}}) {
    for (int n = 8; n <= 40; n += 8) {
      const Circuit c = BandedCnfCircuit(n, b.band);
      ObddManager obdd(PathLayoutOrder(c));
      const auto root = CompileCircuitToObdd(&obdd, c);
      const int width = obdd.Width(root);
      if (n < b.saturated) {
        EXPECT_LT(width, b.width) << "band=" << b.band << " n=" << n;
        continue;
      }
      EXPECT_EQ(width, b.width) << "band=" << b.band << " n=" << n;
      EXPECT_EQ(obdd.Size(root),
                b.saturated_size + b.width * (n - b.saturated))
          << "band=" << b.band << " n=" << n;
    }
  }
}

TEST(PanoramaTest, TreeCnfObddWidthGrows) {
  // Fig 1's CTW(O(1)) region, strictly above CPW(O(1)): tree CNFs have
  // treewidth O(1) but pathwidth Theta(log n). The OBDD width grows with
  // the leaves on the natural order (3, 12, 192, 49152 at 4..32 leaves)
  // and on the path layout order (2, 20, 1248 at 4..16; 6.5 million at
  // 32), while the Lemma 1 SDD stays linear in size
  // (PipelineTest.Result1LinearSizeOnTreeCnf).
  int prev_natural = 0;
  int prev_layout = 0;
  for (int leaves = 4; leaves <= 32; leaves *= 2) {
    const Circuit c = TreeCnfCircuit(leaves);
    ObddManager natural(c.Vars());
    const int natural_width =
        natural.Width(CompileCircuitToObdd(&natural, c));
    EXPECT_GE(natural_width, 4 * prev_natural) << "leaves=" << leaves;
    prev_natural = natural_width;
    if (leaves <= 16) {
      ObddManager layout(PathLayoutOrder(c));
      const int layout_width = layout.Width(CompileCircuitToObdd(&layout, c));
      EXPECT_GE(layout_width, 4 * prev_layout) << "leaves=" << leaves;
      prev_layout = layout_width;
    }
  }
  EXPECT_GE(prev_natural, 1 << 15);
}

TEST(PanoramaTest, MajorityObddPolynomialWithGrowingWidth) {
  // Fig 1's OBDD(n^O(1)) region outside OBDD(O(1)): majority's OBDD has
  // t(n - t + 1) nodes for threshold t = (n + 2) / 2, at most (n + 1)^2/4,
  // and width ceil(n / 2), which grows with n.
  for (int n = 5; n <= 25; n += 5) {
    const Circuit c = MajorityCircuit(n);
    ObddManager obdd(c.Vars());
    const auto root = CompileCircuitToObdd(&obdd, c);
    EXPECT_LE(obdd.Size(root), (n + 1) * (n + 1) / 4) << "n=" << n;
    EXPECT_EQ(obdd.Width(root), (n + 1) / 2) << "n=" << n;
  }
}

TEST(IntegrationTest, TseitinRouteRecanonicalizesToDirectSdd) {
  // The Petke-Razgon route of Section 1: compile the Tseitin CNF
  // D_T(X, Z) and quantify Z away. In one manager over X and Z, SDD
  // canonicity makes the result the very node the direct compilation of
  // C(X) gives, while the intermediate, with one variable per gate, is
  // larger (588 vs 86 elements at 4 rows).
  for (int rows = 4; rows <= 6; ++rows) {
    const Circuit circuit = LadderCircuit(rows, 2);
    const int n = static_cast<int>(circuit.Vars().size());
    const Cnf cnf = TseitinCnf(circuit);
    const Circuit cnf_circuit = CnfToCircuit(cnf);
    const auto vtree = VtreeForCircuit(cnf_circuit);
    ASSERT_TRUE(vtree.ok());
    SddManager manager(vtree.value());
    const auto tseitin = CompileCircuitToSdd(&manager, cnf_circuit);
    const auto direct = CompileCircuitToSdd(&manager, circuit);
    std::vector<int> gate_vars;
    for (int v = n; v < cnf.num_vars; ++v) gate_vars.push_back(v);
    EXPECT_EQ(manager.ExistsAll(tseitin, gate_vars), direct)
        << "rows=" << rows;
    EXPECT_GT(manager.Size(tseitin), manager.Size(direct)) << "rows=" << rows;
  }
}

}  // namespace
}  // namespace ctsdd
