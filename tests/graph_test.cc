#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/families.h"
#include "circuit/primal_graph.h"
#include "graph/elimination.h"
#include "graph/exact_treewidth.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/lower_bound.h"
#include "graph/path_decomposition.h"
#include "graph/tree_decomposition.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace ctsdd {
namespace {

TEST(GraphTest, AddEdgeBasics) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, IgnoresSelfLoopsAndDuplicates) {
  Graph g(2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, GrowsOnDemand) {
  Graph g;
  g.AddEdge(4, 7);
  EXPECT_EQ(g.num_vertices(), 8);
}

TEST(GraphTest, ConnectedComponents) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const auto components = g.ConnectedComponents();
  EXPECT_EQ(components.size(), 3u);  // {0,1}, {2,3}, {4}
  EXPECT_FALSE(g.IsConnected());
}

TEST(GraphTest, MakeNeighborsCliqueCountsFill) {
  Graph g(4);  // star centered at 0
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.MakeNeighborsClique(0), 3);  // triangle among 1,2,3
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_EQ(g.MakeNeighborsClique(0), 0);  // already a clique
}

TEST(GraphTest, InducedSubgraph) {
  Graph g = CycleGraph(5);
  const Graph sub = g.InducedSubgraph({0, 1, 2});
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 2);  // path 0-1-2
}

TEST(TreeDecompositionTest, ValidatesPathDecomposition) {
  const Graph g = PathGraph(4);
  TreeDecomposition td;
  const int a = td.AddNode({0, 1}, -1);
  const int b = td.AddNode({1, 2}, a);
  td.AddNode({2, 3}, b);
  EXPECT_TRUE(td.Validate(g).ok());
  EXPECT_EQ(td.Width(), 1);
}

TEST(TreeDecompositionTest, DetectsMissingEdgeCoverage) {
  const Graph g = CycleGraph(3);
  TreeDecomposition td;
  const int a = td.AddNode({0, 1}, -1);
  td.AddNode({1, 2}, a);
  // Edge {0, 2} is not covered.
  EXPECT_FALSE(td.Validate(g).ok());
}

TEST(TreeDecompositionTest, DetectsDisconnectedOccurrences) {
  const Graph g = PathGraph(3);
  TreeDecomposition td;
  const int a = td.AddNode({0, 1}, -1);
  const int b = td.AddNode({1, 2}, a);
  td.AddNode({0, 2}, b);  // 0 occurs at nodes 0 and 2 but not at node 1
  EXPECT_FALSE(td.Validate(g).ok());
}

// The set-based elimination loop the library engine replaced, kept as an
// oracle: each step rescores every live vertex over a Graph copy.
std::vector<int> NaiveGreedyOrder(const Graph& graph,
                                  EliminationHeuristic heuristic) {
  Graph g = graph;
  const int n = g.num_vertices();
  std::vector<bool> eliminated(n, false);
  std::vector<int> order;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    long best_score = std::numeric_limits<long>::max();
    for (int v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      long score = g.Degree(v);
      if (heuristic == EliminationHeuristic::kMinFill) {
        score = 0;
        const auto& nbrs = g.Neighbors(v);
        for (auto it = nbrs.begin(); it != nbrs.end(); ++it) {
          for (auto jt = std::next(it); jt != nbrs.end(); ++jt) {
            if (!g.HasEdge(*it, *jt)) ++score;
          }
        }
      }
      if (score < best_score) {
        best_score = score;
        best = v;
      }
    }
    g.MakeNeighborsClique(best);
    g.IsolateVertex(best);
    eliminated[best] = true;
    order.push_back(best);
  }
  return order;
}

// Bag of v = {v} plus its neighborhood at elimination; the width is the
// largest neighborhood.
std::vector<std::vector<int>> NaiveBags(const Graph& graph,
                                        const std::vector<int>& order,
                                        int* width) {
  Graph g = graph;
  std::vector<std::vector<int>> bags(graph.num_vertices());
  *width = 0;
  for (const int v : order) {
    *width = std::max(*width, g.Degree(v));
    bags[v].push_back(v);
    for (const int w : g.Neighbors(v)) bags[v].push_back(w);
    g.MakeNeighborsClique(v);
    g.IsolateVertex(v);
  }
  return bags;
}

// The decomposition the old DecompositionFromOrder built: bags linked to
// the earliest-eliminated later neighbor, built in reverse order, with
// parentless bags of a disconnected graph hung under the root.
TreeDecomposition NaiveDecomposition(const Graph& graph,
                                     const std::vector<int>& order) {
  const int n = graph.num_vertices();
  TreeDecomposition td;
  if (n == 0) {
    td.AddNode({}, -1);
    return td;
  }
  int width = 0;
  const std::vector<std::vector<int>> bags = NaiveBags(graph, order, &width);
  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[order[i]] = i;
  std::vector<int> td_id(n, -1);
  for (int i = n - 1; i >= 0; --i) {
    const int v = order[i];
    int parent_vertex = -1;
    for (const int w : bags[v]) {
      if (w != v &&
          (parent_vertex < 0 || position[w] < position[parent_vertex])) {
        parent_vertex = w;
      }
    }
    const int parent_id = parent_vertex < 0 ? -1 : td_id[parent_vertex];
    td_id[v] = td.AddNode(bags[v], parent_id < 0 && td.num_nodes() > 0
                                       ? td.root()
                                       : parent_id);
  }
  return td;
}

void ExpectSameDecomposition(const TreeDecomposition& got,
                             const TreeDecomposition& want,
                             const std::string& label) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << label;
  for (int i = 0; i < got.num_nodes(); ++i) {
    ASSERT_EQ(got.bag(i), want.bag(i)) << label << " node " << i;
    ASSERT_EQ(got.parent(i), want.parent(i)) << label << " node " << i;
  }
}

// Orders under both heuristics, widths, and bag-for-bag decompositions
// (from an order, and from the one-pass min-fill decomposition) all match
// the naive loop.
void ExpectEngineMatchesNaive(const Graph& g, const std::string& label) {
  for (const EliminationHeuristic h :
       {EliminationHeuristic::kMinFill, EliminationHeuristic::kMinDegree}) {
    const std::string which =
        label + (h == EliminationHeuristic::kMinFill ? " min-fill"
                                                     : " min-degree");
    const std::vector<int> order = GreedyEliminationOrder(g, h);
    const std::vector<int> naive = NaiveGreedyOrder(g, h);
    ASSERT_EQ(order, naive) << which;
    int width = 0;
    NaiveBags(g, order, &width);
    EXPECT_EQ(EliminationOrderWidth(g, order), width) << which;
    const TreeDecomposition want = NaiveDecomposition(g, naive);
    ExpectSameDecomposition(DecompositionFromOrder(g, order), want, which);
    if (h == EliminationHeuristic::kMinFill) {
      ExpectSameDecomposition(HeuristicDecomposition(g), want,
                              label + " one pass");
    }
  }
}

// 80 seeded random graphs (connected or not, isolated vertices included)
// and the primal graphs of kc_compile's decomposed circuit families.
std::vector<std::pair<std::string, Graph>> EngineTestGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  Rng rng(20);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.NextBelow(81));  // 0..80
    const double p = 0.02 + 0.48 * rng.NextDouble();
    const std::string label = "trial " + std::to_string(trial);
    graphs.emplace_back(label, RandomGraph(n, p, &rng));
    // Two components of n vertices in all, then two isolated vertices.
    const int split = static_cast<int>(rng.NextBelow(n + 1));
    Graph g = RandomGraph(split, p, &rng);
    const Graph other = RandomGraph(n - split, p, &rng);
    for (int v = 0; v < other.num_vertices(); ++v) {
      for (const int w : other.Neighbors(v)) g.AddEdge(split + v, split + w);
    }
    g.EnsureVertices(n + 2);
    graphs.emplace_back(label + " split", std::move(g));
  }
  const std::vector<std::pair<std::string, Circuit>> families = {
      {"ladder_8_3", LadderCircuit(8, 3)},
      {"ladder_12_3", LadderCircuit(12, 3)},
      {"ladder_16_3", LadderCircuit(16, 3)},
      {"ladder_32_2", LadderCircuit(32, 2)},
      {"banded_cnf_64_4", BandedCnfCircuit(64, 4)},
      {"banded_cnf_128_4", BandedCnfCircuit(128, 4)},
      {"tree_cnf_64", TreeCnfCircuit(64)},
      {"tree_cnf_128", TreeCnfCircuit(128)},
      {"h_chain_2_6_1", HChainCircuit(2, 6, 1)},
      {"parity_128", ParityCircuit(128)},
  };
  for (const auto& [name, circuit] : families) {
    graphs.emplace_back(name, PrimalGraph(circuit));
  }
  return graphs;
}

TEST(EliminationTest, EngineMatchesNaiveReference) {
  for (const auto& [label, g] : EngineTestGraphs()) {
    ASSERT_NO_FATAL_FAILURE(ExpectEngineMatchesNaive(g, label));
  }
}

// The capped pass accepts exactly the graphs whose min-fill width is at
// most the cap, and then returns the uncapped decomposition bag for bag.
TEST(EliminationTest, CappedPassMatchesUncappedOrExceeds) {
  std::vector<int> at_cap(7, 0);  // graphs whose width equals the cap
  int exceeded = 0;
  for (const auto& [label, g] : EngineTestGraphs()) {
    const TreeDecomposition want = HeuristicDecomposition(g);
    for (int k = 0; k <= 6; ++k) {
      const std::string which = label + " k=" + std::to_string(k);
      const std::optional<TreeDecomposition> got =
          HeuristicDecomposition(g, k);
      if (want.Width() <= k) {
        ASSERT_TRUE(got.has_value()) << which << " width " << want.Width();
        ASSERT_NO_FATAL_FAILURE(ExpectSameDecomposition(*got, want, which));
        at_cap[k] += want.Width() == k;
      } else {
        EXPECT_FALSE(got.has_value()) << which << " width " << want.Width();
        ++exceeded;
      }
    }
  }
  // Every cap is met exactly by some graph, and many graphs exceed.
  for (int k = 0; k <= 6; ++k) EXPECT_GT(at_cap[k], 0) << "k=" << k;
  EXPECT_GT(exceeded, 100);
}

TEST(EliminationTest, PathHasWidthOne) {
  const Graph g = PathGraph(10);
  const auto order =
      GreedyEliminationOrder(g, EliminationHeuristic::kMinFill);
  EXPECT_EQ(EliminationOrderWidth(g, order), 1);
}

TEST(EliminationTest, CompleteGraphWidth) {
  const Graph g = CompleteGraph(5);
  const auto order =
      GreedyEliminationOrder(g, EliminationHeuristic::kMinDegree);
  EXPECT_EQ(EliminationOrderWidth(g, order), 4);
}

TEST(EliminationTest, DecompositionFromOrderValid) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(12, 0.3, &rng);
    const auto order =
        GreedyEliminationOrder(g, EliminationHeuristic::kMinFill);
    const TreeDecomposition td = DecompositionFromOrder(g, order);
    ASSERT_TRUE(td.Validate(g).ok()) << td.Validate(g);
    EXPECT_EQ(td.Width(), EliminationOrderWidth(g, order));
  }
}

TEST(EliminationTest, HandlesDisconnectedGraphs) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  const TreeDecomposition td = HeuristicDecomposition(g);
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(ExactTreewidthTest, KnownValues) {
  EXPECT_EQ(ExactTreewidth(PathGraph(8)).value(), 1);
  EXPECT_EQ(ExactTreewidth(CycleGraph(8)).value(), 2);
  EXPECT_EQ(ExactTreewidth(CompleteGraph(6)).value(), 5);
  EXPECT_EQ(ExactTreewidth(GridGraph(3, 5)).value(), 3);
  EXPECT_EQ(ExactTreewidth(Graph(4)).value(), 0);  // edgeless
}

TEST(ExactTreewidthTest, KTreeHasTreewidthK) {
  Rng rng(3);
  for (int k = 1; k <= 3; ++k) {
    const Graph g = RandomKTree(10, k, &rng);
    EXPECT_EQ(ExactTreewidth(g).value(), k) << "k=" << k;
  }
}

TEST(ExactTreewidthTest, OptimalOrderAchievesWidth) {
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomGraph(10, 0.35, &rng);
    const int tw = ExactTreewidth(g).value();
    const auto order = OptimalEliminationOrder(g).value();
    EXPECT_EQ(EliminationOrderWidth(g, order), tw);
  }
}

TEST(ExactTreewidthTest, HeuristicNeverBeatsExact)  {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(9, 0.3, &rng);
    const int exact = ExactTreewidth(g).value();
    const int heuristic = EliminationOrderWidth(
        g, GreedyEliminationOrder(g, EliminationHeuristic::kMinFill));
    EXPECT_LE(exact, heuristic);
  }
}

TEST(ExactTreewidthTest, RejectsLargeGraphs) {
  EXPECT_FALSE(ExactTreewidth(PathGraph(kMaxExactVertices + 1)).ok());
}

TEST(PathwidthTest, KnownValues) {
  EXPECT_EQ(ExactPathwidth(PathGraph(8)).value(), 1);
  EXPECT_EQ(ExactPathwidth(CycleGraph(6)).value(), 2);
  EXPECT_EQ(ExactPathwidth(CompleteGraph(5)).value(), 4);
  EXPECT_EQ(ExactPathwidth(Caterpillar(6, 1)).value(), 1);
}

TEST(PathwidthTest, CompleteBinaryTreePathwidthGrows) {
  // Pathwidth of the complete binary tree of height h is ceil(h/2);
  // treewidth stays 1. This is the Figure 1 CTW vs CPW separation seed.
  auto tree = [](int height) {
    const int nodes = (1 << (height + 1)) - 1;
    Graph g(nodes);
    for (int v = 1; v < nodes; ++v) g.AddEdge(v, (v - 1) / 2);
    return g;
  };
  EXPECT_EQ(ExactTreewidth(tree(3)).value(), 1);
  EXPECT_EQ(ExactPathwidth(tree(2)).value(), 1);
  EXPECT_EQ(ExactPathwidth(tree(3)).value(), 2);
}

TEST(PathwidthTest, LayoutAchievesWidth) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomGraph(9, 0.3, &rng);
    const int pw = ExactPathwidth(g).value();
    const auto layout = OptimalPathLayout(g).value();
    EXPECT_EQ(PathLayoutWidth(g, layout), pw);
  }
}

TEST(PathwidthTest, PathwidthAtLeastTreewidth) {
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(8, 0.3, &rng);
    EXPECT_GE(ExactPathwidth(g).value(), ExactTreewidth(g).value());
  }
}

TEST(PathDecompositionTest, BagsFormValidDecomposition) {
  Rng rng(41);
  const Graph g = RandomGraph(10, 0.3, &rng);
  const auto layout = BfsLayout(g);
  const TreeDecomposition td = PathAsTreeDecomposition(g, layout);
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(NiceDecompositionTest, ValidNiceForm) {
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(10, 0.35, &rng);
    const TreeDecomposition td = HeuristicDecomposition(g);
    ASSERT_TRUE(td.Validate(g).ok());
    const NiceTreeDecomposition nice = MakeNice(td);
    EXPECT_TRUE(nice.Validate(g).ok()) << nice.Validate(g);
    EXPECT_EQ(nice.Width(), td.Width());
  }
}

TEST(NiceDecompositionTest, RootIsEmptyAndForgetsOnce) {
  const Graph g = GridGraph(3, 3);
  const NiceTreeDecomposition nice = MakeNice(HeuristicDecomposition(g));
  EXPECT_TRUE(nice.nodes[nice.root].bag.empty());
  int forgets = 0;
  for (const auto& node : nice.nodes) {
    if (node.kind == NiceNodeKind::kForget) ++forgets;
  }
  EXPECT_EQ(forgets, g.num_vertices());
}

TEST(LowerBoundTest, MmdOnKnownGraphs) {
  EXPECT_EQ(TreewidthLowerBoundMmd(CompleteGraph(6)), 5);
  EXPECT_EQ(TreewidthLowerBoundMmd(PathGraph(10)), 1);
  EXPECT_EQ(TreewidthLowerBoundMmd(CycleGraph(8)), 2);
  // Grid: degeneracy 2, treewidth 3 — MMD is strictly below here.
  EXPECT_EQ(TreewidthLowerBoundMmd(GridGraph(3, 5)), 2);
}

TEST(LowerBoundTest, BoundsSandwichExactTreewidth) {
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(10, 0.35, &rng);
    const int tw = ExactTreewidth(g).value();
    const int mmd = TreewidthLowerBoundMmd(g);
    const int mmd_plus = TreewidthLowerBoundMmdPlus(g);
    EXPECT_LE(mmd, tw);
    EXPECT_LE(mmd_plus, tw);
    EXPECT_GE(mmd_plus, mmd);
  }
}

TEST(GeneratorsTest, SizesAndDegrees) {
  EXPECT_EQ(GridGraph(3, 4).num_vertices(), 12);
  EXPECT_EQ(GridGraph(3, 4).num_edges(), 3 * 3 + 2 * 4);
  EXPECT_EQ(CompleteGraph(6).num_edges(), 15);
  Rng rng(47);
  const Graph t = RandomTree(20, &rng);
  EXPECT_EQ(t.num_edges(), 19);
  EXPECT_TRUE(t.IsConnected());
}

TEST(GeneratorsTest, PartialKTreeRespectsWidthBound) {
  Rng rng(53);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomPartialKTree(12, 3, 0.6, &rng);
    EXPECT_LE(ExactTreewidth(g).value(), 3);
  }
}

}  // namespace
}  // namespace ctsdd
