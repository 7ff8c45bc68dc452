// Validation of the branch-and-bound exact-width engine: randomized
// cross-checks against the dense subset-DP oracle (below), known
// width values at sizes the old 24-vertex dense engine could not reach,
// bounded-query semantics, and the cross-call WidthCache.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "circuit/builder.h"
#include "circuit/families.h"
#include "circuit/primal_graph.h"
#include "graph/elimination.h"
#include "graph/exact_treewidth.h"
#include "graph/generators.h"
#include "graph/path_decomposition.h"
#include "graph/width_cache.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace ctsdd {
namespace {

static_assert(kMaxExactVertices >= 32,
              "the B&B engine is expected to reach 32-vertex graphs");

// --- Dense subset-DP oracle ------------------------------------------------
// The engine the branch-and-bound search replaced: O(2^n * n^2) time and
// a 2^n-byte table, so callers keep to small graphs (the pools below stay
// at 14 vertices or fewer).

std::vector<uint32_t> BitAdjacency(const Graph& g) {
  std::vector<uint32_t> adj(g.num_vertices(), 0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int w : g.Neighbors(v)) adj[v] |= (1u << w);
  }
  return adj;
}

// Q(S, v): vertices outside S∪{v} reachable from v via paths whose internal
// vertices all lie in S. |Q(S, v)| is the degree of v when eliminated after
// exactly the vertices of S (in the chordal completion).
uint32_t ReachableThrough(const std::vector<uint32_t>& adj, uint32_t s,
                          int v) {
  uint32_t visited = (1u << v);
  uint32_t frontier = adj[v];
  uint32_t reach = adj[v] & ~s & ~(1u << v);
  frontier &= s & ~visited;
  while (frontier != 0) {
    const int u = std::countr_zero(frontier);
    frontier &= frontier - 1;
    if (visited & (1u << u)) continue;
    visited |= (1u << u);
    reach |= adj[u] & ~s & ~(1u << v);
    frontier |= adj[u] & s & ~visited;
  }
  return reach;
}

// Exact treewidth by the full Bodlaender et al. subset DP:
// tw(S) = min_{v in S} max(|Q(S\{v}, v)|, tw(S\{v})).
int DenseExactTreewidth(const Graph& graph) {
  const int n = graph.num_vertices();
  if (n == 0) return 0;
  const auto adj = BitAdjacency(graph);
  const uint32_t full = (1u << n) - 1;
  std::vector<int8_t> dp(static_cast<size_t>(full) + 1, 0);
  for (uint32_t s = 1; s <= full; ++s) {
    int best = std::numeric_limits<int>::max();
    uint32_t rest = s;
    while (rest != 0) {
      const int v = std::countr_zero(rest);
      rest &= rest - 1;
      const uint32_t without = s & ~(1u << v);
      const int q = std::popcount(ReachableThrough(adj, without, v));
      best = std::min(best, std::max(q, static_cast<int>(dp[without])));
    }
    dp[s] = static_cast<int8_t>(best);
  }
  return dp[full];
}

// Exact pathwidth by the vertex-separation subset DP:
// vs(S) = min_{v in S} max(vs(S\{v}), cost(S)), where
// cost(S) = |{u in S : u has a neighbor outside S}|. vs(V) = pathwidth.
int DenseExactPathwidth(const Graph& graph) {
  const int n = graph.num_vertices();
  if (n == 0) return 0;
  const auto adj = BitAdjacency(graph);
  const uint32_t full = (1u << n) - 1;
  std::vector<int8_t> dp(static_cast<size_t>(full) + 1, 0);
  for (uint32_t s = 1; s <= full; ++s) {
    int boundary = 0;
    uint32_t rest = s;
    while (rest != 0) {
      const int u = std::countr_zero(rest);
      rest &= rest - 1;
      if ((adj[u] & ~s) != 0) ++boundary;
    }
    int best = std::numeric_limits<int>::max();
    rest = s;
    while (rest != 0) {
      const int v = std::countr_zero(rest);
      rest &= rest - 1;
      best = std::min(best, static_cast<int>(dp[s & ~(1u << v)]));
    }
    dp[s] = static_cast<int8_t>(std::max(best, boundary));
  }
  return dp[full];
}

// A varied pool of small graphs: Erdos–Renyi across densities, partial
// k-trees (the circuit-like regime), trees, and structured families.
std::vector<Graph> CrossCheckPool(int count, Rng* rng) {
  std::vector<Graph> pool;
  pool.reserve(count);
  for (int i = 0; i < count; ++i) {
    const int n = rng->NextInt(2, 14);
    switch (i % 4) {
      case 0:
        pool.push_back(RandomGraph(n, rng->NextDouble(), rng));
        break;
      case 1: {
        const int k = rng->NextInt(1, std::min(4, n - 1));
        pool.push_back(RandomKTree(n, k, rng));
        break;
      }
      case 2: {
        const int k = rng->NextInt(1, std::min(4, n - 1));
        pool.push_back(RandomPartialKTree(n, k, 0.7, rng));
        break;
      }
      default:
        pool.push_back(RandomTree(n, rng));
        break;
    }
  }
  return pool;
}

TEST(WidthSearchTest, TreewidthMatchesDenseOracle) {
  Rng rng(101);
  for (const Graph& g : CrossCheckPool(200, &rng)) {
    const int expected = DenseExactTreewidth(g);
    EXPECT_EQ(ExactTreewidth(g).value(), expected) << g.DebugString();
    // The optimal order must achieve exactly the optimal width.
    const auto order = OptimalEliminationOrder(g).value();
    EXPECT_EQ(EliminationOrderWidth(g, order), expected) << g.DebugString();
  }
}

TEST(WidthSearchTest, PathwidthMatchesDenseOracle) {
  Rng rng(103);
  for (const Graph& g : CrossCheckPool(200, &rng)) {
    const int expected = DenseExactPathwidth(g);
    EXPECT_EQ(ExactPathwidth(g).value(), expected) << g.DebugString();
    const auto layout = OptimalPathLayout(g).value();
    EXPECT_EQ(PathLayoutWidth(g, layout), expected) << g.DebugString();
  }
}

TEST(WidthSearchTest, BoundedQuerySemantics) {
  Rng rng(107);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = RandomGraph(rng.NextInt(3, 12), 0.4, &rng);
    const int tw = DenseExactTreewidth(g);
    // A cap above the treewidth yields the exact value; a cap at or below
    // it is returned unchanged (certifying tw >= cap).
    EXPECT_EQ(ExactTreewidthAtMost(g, tw + 1).value(), tw);
    EXPECT_EQ(ExactTreewidthAtMost(g, g.num_vertices()).value(), tw);
    EXPECT_EQ(ExactTreewidthAtMost(g, tw).value(), tw);
    if (tw > 0) {
      EXPECT_EQ(ExactTreewidthAtMost(g, tw - 1).value(), tw - 1);
    }
    EXPECT_EQ(ExactTreewidthAtMost(g, 0).value(), 0);
  }
}

// Width values known in closed form, at sizes beyond the old dense
// engine's 24-vertex ceiling.
TEST(WidthSearchTest, KnownValuesAtLargeSizes) {
  Rng rng(109);
  EXPECT_EQ(ExactTreewidth(PathGraph(32)).value(), 1);
  EXPECT_EQ(ExactTreewidth(RandomTree(32, &rng)).value(), 1);
  EXPECT_EQ(ExactTreewidth(CycleGraph(30)).value(), 2);
  EXPECT_EQ(ExactTreewidth(GridGraph(3, 10)).value(), 3);
  EXPECT_EQ(ExactTreewidth(GridGraph(4, 8)).value(), 4);
  EXPECT_EQ(ExactTreewidth(CompleteGraph(32)).value(), 31);
  for (int k = 2; k <= 6; ++k) {
    EXPECT_EQ(ExactTreewidth(RandomKTree(28, k, &rng)).value(), k)
        << "k=" << k;
    EXPECT_LE(ExactTreewidth(RandomPartialKTree(26, k, 0.6, &rng)).value(), k)
        << "k=" << k;
  }
  EXPECT_EQ(ExactPathwidth(PathGraph(32)).value(), 1);
  EXPECT_EQ(ExactPathwidth(Caterpillar(14, 1)).value(), 1);  // 28 vertices
  EXPECT_EQ(ExactPathwidth(CycleGraph(26)).value(), 2);
  EXPECT_EQ(ExactPathwidth(CompleteGraph(30)).value(), 29);
  // Complete binary tree of height h: pathwidth ceil(h/2).
  Graph tree(31);
  for (int v = 1; v < 31; ++v) tree.AddEdge(v, (v - 1) / 2);
  EXPECT_EQ(ExactTreewidth(tree).value(), 1);
  EXPECT_EQ(ExactPathwidth(tree).value(), 2);
}

TEST(WidthSearchTest, OptimalOrderAtLargeSizes) {
  Rng rng(113);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomPartialKTree(30, 4, 0.75, &rng);
    const int tw = ExactTreewidth(g).value();
    EXPECT_LE(tw, 4);
    const auto order = OptimalEliminationOrder(g).value();
    EXPECT_EQ(EliminationOrderWidth(g, order), tw);
  }
}

TEST(WidthSearchTest, RepeatedCircuitCallsHitWidthCache) {
  WidthCache::Global().Clear();
  const Circuit circuit = LadderCircuit(6, 2);
  const int first = ExactCircuitTreewidth(circuit).value();
  const WidthCache::Stats after_first = WidthCache::Global().stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.lookups, 1u);
  for (int repeat = 0; repeat < 5; ++repeat) {
    EXPECT_EQ(ExactCircuitTreewidth(circuit).value(), first);
  }
  const WidthCache::Stats after_repeats = WidthCache::Global().stats();
  EXPECT_EQ(after_repeats.lookups, 6u);
  EXPECT_EQ(after_repeats.hits, 5u);  // every repeat served from cache
}

TEST(WidthSearchTest, CacheDistinguishesKindsAndGraphs) {
  WidthCache::Global().Clear();
  const Graph path = PathGraph(12);
  const Graph cycle = CycleGraph(12);
  EXPECT_EQ(ExactTreewidth(path).value(), 1);
  EXPECT_EQ(ExactPathwidth(path).value(), 1);  // same graph, other kind
  EXPECT_EQ(ExactTreewidth(cycle).value(), 2);
  const WidthCache::Stats stats = WidthCache::Global().stats();
  EXPECT_EQ(stats.hits, 0u);  // three distinct (kind, graph) keys
  // The order-returning calls hit the entries their width twins created.
  EXPECT_EQ(EliminationOrderWidth(path, OptimalEliminationOrder(path).value()),
            1);
  EXPECT_EQ(PathLayoutWidth(path, OptimalPathLayout(path).value()), 1);
  EXPECT_EQ(WidthCache::Global().stats().hits, 2u);
}

TEST(WidthSearchTest, SizeLimitRaisedTo32) {
  EXPECT_TRUE(ExactTreewidth(PathGraph(32)).ok());
  EXPECT_FALSE(ExactTreewidth(PathGraph(33)).ok());
  EXPECT_FALSE(ExactPathwidth(PathGraph(33)).ok());
}

}  // namespace
}  // namespace ctsdd
