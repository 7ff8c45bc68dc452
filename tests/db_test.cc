#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/eval.h"
#include "circuit/primal_graph.h"
#include "db/database.h"
#include "db/inversion.h"
#include "db/lineage.h"
#include "db/query.h"
#include "db/query_compile.h"
#include "graph/elimination.h"
#include "gtest/gtest.h"
#include "perfbench/serve_inputs.h"
#include "sdd/sdd_compile.h"
#include "util/logging.h"
#include "vtree/from_decomposition.h"

namespace ctsdd {
namespace {

TEST(DatabaseTest, TuplesAndIds) {
  Database db;
  db.AddRelation("R", 1);
  db.AddRelation("S", 2);
  const int t0 = db.AddTuple("R", {1}, 0.5);
  const int t1 = db.AddTuple("S", {1, 2}, 0.25);
  EXPECT_EQ(t0, 0);
  EXPECT_EQ(t1, 1);
  EXPECT_EQ(db.num_tuples(), 2);
  EXPECT_EQ(db.FindTuple("S", {1, 2}), 1);
  EXPECT_EQ(db.FindTuple("S", {2, 1}), -1);
  EXPECT_DOUBLE_EQ(db.TupleProb(1), 0.25);
  EXPECT_EQ(db.ActiveDomain(), (std::vector<int>{1, 2}));
}

TEST(LineageTest, HierarchicalQuerySmall) {
  // R(x), S(x,y) over R={1}, S={(1,1),(1,2)}:
  // lineage = r1 & (s11 | s12).
  Database db;
  db.AddRelation("R", 1);
  db.AddRelation("S", 2);
  const int r1 = db.AddTuple("R", {1}, 0.5);
  const int s11 = db.AddTuple("S", {1, 1}, 0.5);
  const int s12 = db.AddTuple("S", {1, 2}, 0.5);
  const auto lineage = BuildLineage(HierarchicalRSQuery(), db);
  ASSERT_TRUE(lineage.ok());
  auto eval = [&](bool br, bool b11, bool b12) {
    std::vector<bool> a(3);
    a[r1] = br;
    a[s11] = b11;
    a[s12] = b12;
    return Evaluate(lineage.value(), a);
  };
  EXPECT_TRUE(eval(true, true, false));
  EXPECT_TRUE(eval(true, false, true));
  EXPECT_FALSE(eval(true, false, false));
  EXPECT_FALSE(eval(false, true, true));
}

TEST(LineageTest, EmptyDatabaseGivesFalse) {
  Database db;
  db.AddRelation("R", 1);
  db.AddRelation("S", 2);
  const auto lineage = BuildLineage(HierarchicalRSQuery(), db);
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(BruteForceModelCount(lineage.value()), 0u);
}

TEST(LineageTest, UnknownRelationFails) {
  Database db;
  db.AddRelation("R", 1);
  EXPECT_FALSE(BuildLineage(HierarchicalRSQuery(), db).ok());
}

TEST(LineageTest, ConstantsInAtoms) {
  // Q = S('1', y): only tuples with first column 1 matter.
  Database db;
  db.AddRelation("S", 2);
  const int s12 = db.AddTuple("S", {1, 2}, 0.5);
  db.AddTuple("S", {2, 2}, 0.5);
  Ucq q;
  ConjunctiveQuery cq;
  cq.atoms.push_back({"S", {EncodeConstant(1), 0}});
  q.disjuncts.push_back(cq);
  const auto lineage = BuildLineage(q, db);
  ASSERT_TRUE(lineage.ok());
  std::vector<bool> a(2, false);
  a[s12] = true;
  EXPECT_TRUE(Evaluate(lineage.value(), a));
  a[s12] = false;
  a[1] = true;
  EXPECT_FALSE(Evaluate(lineage.value(), a));
}

TEST(LineageTest, InequalitiesFilterGroundings) {
  // Q = R(x), R(y), x != y over R = {1, 2}: lineage = r1 & r2.
  Database db;
  db.AddRelation("R", 1);
  const int r1 = db.AddTuple("R", {1}, 0.5);
  const int r2 = db.AddTuple("R", {2}, 0.5);
  Ucq q;
  ConjunctiveQuery cq;
  cq.atoms.push_back({"R", {0}});
  cq.atoms.push_back({"R", {1}});
  cq.inequalities.push_back({0, 1});
  q.disjuncts.push_back(cq);
  const auto lineage = BuildLineage(q, db);
  ASSERT_TRUE(lineage.ok());
  std::vector<bool> a(2, false);
  a[r1] = true;
  EXPECT_FALSE(Evaluate(lineage.value(), a));
  a[r2] = true;
  EXPECT_TRUE(Evaluate(lineage.value(), a));
}

TEST(LineageTest, ProbabilityIndependentAndOr) {
  // P(r & (s1 | s2)) with all probs 1/2 = 0.5 * 0.75.
  Database db;
  db.AddRelation("R", 1);
  db.AddRelation("S", 2);
  db.AddTuple("R", {1}, 0.5);
  db.AddTuple("S", {1, 1}, 0.5);
  db.AddTuple("S", {1, 2}, 0.5);
  const auto p = BruteForceQueryProbability(HierarchicalRSQuery(), db);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.5 * 0.75, 1e-12);
}

TEST(InversionTest, HierarchicalQueries) {
  EXPECT_TRUE(IsHierarchicalUcq(HierarchicalRSQuery()));
  EXPECT_FALSE(IsHierarchical(NonHierarchicalH0Query().disjuncts[0]));
  EXPECT_FALSE(HasInversion(HierarchicalRSQuery()));
  EXPECT_TRUE(HasInversion(NonHierarchicalH0Query()));
}

TEST(InversionTest, ChainLengthDetected) {
  for (int k = 1; k <= 4; ++k) {
    const Ucq q = InversionChainUcq(k);
    EXPECT_TRUE(IsHierarchicalUcq(q));  // each disjunct is hierarchical
    EXPECT_EQ(FindInversionLength(q), k) << "k=" << k;
  }
}

TEST(InversionTest, InequalityQueryStillHierarchical) {
  const Ucq q = InequalityExampleQuery();
  EXPECT_TRUE(q.HasInequalities());
}

TEST(DistinctPairTest, LineageSemanticsAndWidthGrowth) {
  // Q = R(x), S(y), x != y: true iff some R-element and some *different*
  // S-element are present.
  const Ucq q = DistinctPairQuery();
  EXPECT_TRUE(q.HasInequalities());
  EXPECT_FALSE(HasInversion(q));
  std::vector<int> widths;
  for (int n = 2; n <= 6; ++n) {
    Database db;
    db.AddRelation("R", 1);
    db.AddRelation("S", 1);
    for (int l = 1; l <= n; ++l) db.AddTuple("R", {l}, 0.5);
    for (int l = 1; l <= n; ++l) db.AddTuple("S", {l}, 0.5);
    const auto comp = CompileQuery(q, db, VtreeStrategy::kRightLinear);
    ASSERT_TRUE(comp.ok());
    const auto brute = BruteForceQueryProbability(q, db);
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(comp->probability, brute.value(), 1e-9);
    widths.push_back(comp->obdd_width);
  }
  // Width grows with n under the block order (Figure 3's non-constant
  // width witness).
  EXPECT_GT(widths.back(), widths.front());
}

TEST(QueryCompileTest, ProbabilitiesMatchBruteForce) {
  Database db = BipartiteRstDatabase(2, 0.5);
  const Ucq q = NonHierarchicalH0Query();
  const auto brute = BruteForceQueryProbability(q, db);
  ASSERT_TRUE(brute.ok());
  for (const VtreeStrategy strategy :
       {VtreeStrategy::kRightLinear, VtreeStrategy::kBalanced,
        VtreeStrategy::kFromTreewidth}) {
    const auto comp = CompileQuery(q, db, strategy);
    ASSERT_TRUE(comp.ok()) << comp.status();
    EXPECT_NEAR(comp->probability, brute.value(), 1e-9);
  }
}

TEST(QueryCompileTest, NonUniformProbabilities) {
  Database db;
  db.AddRelation("R", 1);
  db.AddRelation("S", 2);
  db.AddTuple("R", {1}, 0.9);
  db.AddTuple("S", {1, 1}, 0.2);
  db.AddTuple("S", {1, 2}, 0.7);
  const Ucq q = HierarchicalRSQuery();
  const auto comp = CompileQuery(q, db);
  ASSERT_TRUE(comp.ok());
  EXPECT_NEAR(comp->probability, 0.9 * (1.0 - 0.8 * 0.3), 1e-9);
}

TEST(QueryCompileTest, DefaultStrategyIsBalanced) {
  // The defaulted call compiles on the balanced vtree; kFromTreewidth
  // stays available when asked for.
  const Database db = ChainDatabase(1, 3);
  const Ucq q = InversionChainUcq(1);
  const auto defaulted = CompileQuery(q, db);
  const auto balanced = CompileQuery(q, db, VtreeStrategy::kBalanced);
  const auto lemma1 = CompileQuery(q, db, VtreeStrategy::kFromTreewidth);
  ASSERT_TRUE(defaulted.ok());
  ASSERT_TRUE(balanced.ok());
  ASSERT_TRUE(lemma1.ok());
  EXPECT_EQ(defaulted->sdd_size, balanced->sdd_size);
  EXPECT_NE(defaulted->sdd_size, lemma1->sdd_size);
}

// The serve rule, checked on vtrees alone: nothing here compiles, so a
// rule that let the width-9 inequality lineage through would fail fast
// instead of compiling it on Lemma 1 for minutes.
Circuit ServeLineage(const Ucq& query, uint64_t db_seed) {
  const Database db = perfbench::RandomContentDb(8, 32, db_seed);
  auto lineage = BuildLineage(query, db);
  CTSDD_CHECK(lineage.ok());
  return std::move(lineage).value();
}

int MinFillWidth(const Circuit& circuit) {
  return HeuristicDecomposition(PrimalGraph(circuit)).Width();
}

TEST(QueryCompileTest, LineageVtreeIsLemma1OnHierarchicalRs) {
  for (const uint64_t seed : {7, 99, 12345}) {
    const Circuit c = ServeLineage(HierarchicalRSQuery(), seed);
    const std::vector<int> vars = c.Vars();
    ASSERT_GT(static_cast<int>(vars.size()), kSemanticCircuitMaxVars);
    ASSERT_LE(MinFillWidth(c), kLemma1ServeMaxWidth);
    const auto got = VtreeForLineage(c, vars);
    const auto lemma1 = VtreeForCircuit(c);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(lemma1.ok()) << lemma1.status();
    EXPECT_EQ(got->strategy, VtreeStrategy::kFromTreewidth) << seed;
    EXPECT_EQ(got->vtree.DebugString(), lemma1->DebugString()) << seed;
  }
}

TEST(QueryCompileTest, LineageVtreeIsBalancedOnWideOrSmallLineages) {
  struct Case {
    std::string name;
    Ucq query;
    bool wide;  // min-fill width above the cap, else few variables
  };
  Ucq pair = PerConstantRsQuery(1);
  pair.disjuncts.push_back(PerConstantRsQuery(2).disjuncts[0]);
  const std::vector<Case> cases = {
      {"inequality", InequalityExampleQuery(), true},
      {"H0", NonHierarchicalH0Query(), true},
      {"per-constant pair", pair, false},
  };
  for (const Case& tc : cases) {
    const Circuit c = ServeLineage(tc.query, 7);
    const std::vector<int> vars = c.Vars();
    ASSERT_FALSE(vars.empty()) << tc.name;
    const int width = MinFillWidth(c);
    if (tc.wide) {
      ASSERT_GT(static_cast<int>(vars.size()), kSemanticCircuitMaxVars);
      ASSERT_GT(width, kLemma1ServeMaxWidth) << tc.name;
    } else {
      // Narrow enough, but the semantic route compiles it.
      ASSERT_LE(static_cast<int>(vars.size()), kSemanticCircuitMaxVars);
      ASSERT_LE(width, kLemma1ServeMaxWidth) << tc.name;
    }
    const auto got = VtreeForLineage(c, vars);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->strategy, VtreeStrategy::kBalanced) << tc.name;
    EXPECT_EQ(got->vtree.DebugString(), Vtree::Balanced(vars).DebugString())
        << tc.name << " (min-fill width " << width << ")";
  }
}

// Over the serve workloads' 39 shapes, only hierarchical RS (shape 0)
// gets the Lemma 1 vtree.
TEST(QueryCompileTest, LineageVtreeSelectsHierarchicalRsInTheServePopulation) {
  const std::vector<Ucq> shapes = perfbench::QueryPopulation(8);
  ASSERT_EQ(shapes.size(), 39u);
  for (const uint64_t seed : {7, 99, 12345}) {
    for (size_t i = 0; i < shapes.size(); ++i) {
      const Circuit c = ServeLineage(shapes[i], seed);
      const std::vector<int> vars = c.Vars();
      if (vars.empty()) continue;
      const auto got = VtreeForLineage(c, vars);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->strategy == VtreeStrategy::kFromTreewidth, i == 0)
          << "shape " << i << " seed " << seed;
    }
  }
}

TEST(QueryCompileTest, HierarchicalQueryConstantObddWidth) {
  // Figure 2: inversion-free lineages have constant OBDD width under the
  // "process tuples group by group" order; tuple-id order realizes it for
  // the RS query.
  int max_width = 0;
  for (int n = 2; n <= 8; ++n) {
    Database db;
    db.AddRelation("R", 1);
    db.AddRelation("S", 2);
    // Interleave R(l) with its S(l, *) tuples so the tuple-id order is the
    // hierarchical processing order.
    for (int l = 1; l <= n; ++l) {
      db.AddTuple("R", {l}, 0.5);
      for (int m = 1; m <= n; ++m) db.AddTuple("S", {l, m}, 0.5);
    }
    const auto comp = CompileQuery(HierarchicalRSQuery(), db,
                                   VtreeStrategy::kRightLinear);
    ASSERT_TRUE(comp.ok());
    max_width = std::max(max_width, comp->obdd_width);
  }
  EXPECT_LE(max_width, 4);
}

TEST(QueryCompileTest, ChainDatabaseLineageRestrictsToH) {
  // Lemma 7 (executable form): the lineage of the chain query over the
  // chain database, with R and T tuples set true and S^{j != i} neutral,
  // yields functions with the H^i structure. Spot-check k=1, i=0: set all
  // T false... T appears only in the last disjunct; setting the S^1-T
  // disjunct's T tuples to false leaves OR_{l,m} (R_l & S1_{l,m}).
  const int k = 1, n = 2;
  const Ucq q = InversionChainUcq(k);
  Database db = ChainDatabase(k, n);
  const auto lineage = BuildLineage(q, db);
  ASSERT_TRUE(lineage.ok());
  const Circuit& c = lineage.value();
  // Assignment: T tuples false -> remaining function is
  // OR_{l,m} (r_l & s_{l,m}) over r and s tuple variables.
  std::vector<bool> a(db.num_tuples(), false);
  auto r_id = [&](int l) { return db.FindTuple("R", {l}); };
  auto s_id = [&](int l, int m) { return db.FindTuple("S1", {l, m}); };
  a[r_id(1)] = true;
  a[s_id(1, 2)] = true;
  EXPECT_TRUE(Evaluate(c, a));
  a[s_id(1, 2)] = false;
  a[s_id(2, 2)] = true;
  EXPECT_FALSE(Evaluate(c, a));  // r2 missing
  a[r_id(2)] = true;
  EXPECT_TRUE(Evaluate(c, a));
}

}  // namespace
}  // namespace ctsdd
