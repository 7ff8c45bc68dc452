// Exact treewidth and pathwidth via pruned branch-and-bound over
// elimination prefixes (QuickBB-style search on the Bodlaender–Fomin–
// Koster recurrence), replacing the exhaustive O(2^n * n^2) subset DP
// (kept as a cross-check oracle in tests/width_search_test.cc).
//
// The search is seeded with the min-fill/min-degree heuristic upper bound
// (elimination.h) and the MMD+ degeneracy lower bound (lower_bound.h),
// applies the Bodlaender–Koster safe reductions (simplicial and
// almost-simplicial vertex elimination) and connected-component splitting
// before branching, forces simplicial vertices during the search, and
// memoizes subset states in an open-addressed table instead of a dense
// 2^n array. Results are memoized process-wide across calls in
// WidthCache (width_cache.h), keyed by the graph's adjacency signature.
//
// Practical reach is ~32 vertices on the sparse graphs that arise as
// circuit primal graphs; adversarially dense instances can still take
// exponential time. For larger graphs use the heuristics in
// elimination.h.

#ifndef CTSDD_GRAPH_EXACT_TREEWIDTH_H_
#define CTSDD_GRAPH_EXACT_TREEWIDTH_H_

#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace ctsdd {

// Maximum vertex count accepted by the exact algorithms (subset states
// are 64-bit masks; 32 keeps the pruned search reliably fast).
inline constexpr int kMaxExactVertices = 32;

// Exact treewidth. Fails with kResourceExhausted when the graph has more
// than kMaxExactVertices vertices.
StatusOr<int> ExactTreewidth(const Graph& graph);

// Bounded query: returns min(tw(graph), cap). A result below `cap` is the
// exact treewidth; a result equal to `cap` only certifies tw >= cap.
// Seeding `cap` with a running minimum makes "does this graph beat the
// best width seen so far?" sweeps (vtree enumeration in compile/widths)
// dramatically cheaper than computing every exact width: refuting
// "tw < cap" usually falls out of the root lower bound, while the full
// exact solve must refute "tw < tw(graph)", the most expensive target.
StatusOr<int> ExactTreewidthAtMost(const Graph& graph, int cap);

// Exact treewidth together with an optimal elimination order.
StatusOr<std::vector<int>> OptimalEliminationOrder(const Graph& graph);

// Exact pathwidth (vertex separation number). Same size limits.
StatusOr<int> ExactPathwidth(const Graph& graph);

// Exact pathwidth together with an optimal vertex layout (the order in
// which vertices enter the path decomposition).
StatusOr<std::vector<int>> OptimalPathLayout(const Graph& graph);

}  // namespace ctsdd

#endif  // CTSDD_GRAPH_EXACT_TREEWIDTH_H_
