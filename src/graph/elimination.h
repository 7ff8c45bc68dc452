// Elimination-order based treewidth upper bounds and tree decompositions.
//
// Eliminating a vertex connects its neighbors into a clique and removes the
// vertex; the width of an elimination order is the largest neighborhood
// encountered. Every elimination order yields a tree decomposition of that
// width, and the minimum over all orders is exactly the treewidth.

#ifndef CTSDD_GRAPH_ELIMINATION_H_
#define CTSDD_GRAPH_ELIMINATION_H_

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/tree_decomposition.h"

namespace ctsdd {

enum class EliminationHeuristic {
  kMinDegree,
  kMinFill,
};

// Greedy elimination order: each step eliminates the vertex with the
// smallest score (current degree, or number of fill edges), ties going to
// the lowest vertex id.
std::vector<int> GreedyEliminationOrder(const Graph& graph,
                                        EliminationHeuristic heuristic);

// Width of an elimination order (max neighborhood size during elimination,
// i.e., max bag size - 1 of the induced decomposition).
int EliminationOrderWidth(const Graph& graph, const std::vector<int>& order);

// Builds the tree decomposition induced by an elimination order. The root
// bag corresponds to the last vertex eliminated.
TreeDecomposition DecompositionFromOrder(const Graph& graph,
                                         const std::vector<int>& order);

// The decomposition of the min-fill order, built in the same elimination
// pass that chooses the order. Equal to
// DecompositionFromOrder(graph, GreedyEliminationOrder(graph, kMinFill)).
TreeDecomposition HeuristicDecomposition(const Graph& graph);

// The same decomposition when the min-fill order's width is at most
// `max_width`, and nullopt otherwise. The pass stops at the first vertex
// whose elimination neighborhood is larger than `max_width`, so a graph
// of large width costs only the steps up to that vertex.
std::optional<TreeDecomposition> HeuristicDecomposition(const Graph& graph,
                                                        int max_width);

}  // namespace ctsdd

#endif  // CTSDD_GRAPH_ELIMINATION_H_
