#include "graph/elimination.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "util/logging.h"

namespace ctsdd {
namespace {

// The elimination game on flat sorted neighbor vectors. Memory stays
// O(n + edges + fill), with no n x n structure, because lineage primal
// graphs can be large. A stamp array marks one neighborhood at a time.
class EliminationGraph {
 public:
  explicit EliminationGraph(const Graph& graph)
      : adj_(graph.num_vertices()), stamp_(graph.num_vertices(), 0) {
    for (int v = 0; v < graph.num_vertices(); ++v) {
      adj_[v].assign(graph.Neighbors(v).begin(), graph.Neighbors(v).end());
    }
  }

  const std::vector<int>& Neighbors(int v) const { return adj_[v]; }

  using Edges = std::vector<std::pair<int, int>>;

  // Connects v's neighbors into a clique, removes v's edges and returns v's
  // neighborhood at elimination time. The fill edges added are appended to
  // `*fill` as (smaller, larger) pairs when it is non-null.
  std::vector<int> Eliminate(int v, Edges* fill = nullptr) {
    CTSDD_CHECK_GE(v, 0);
    CTSDD_CHECK_LT(v, static_cast<int>(adj_.size()));
    std::vector<int> nbrs = std::move(adj_[v]);
    adj_[v].clear();
    for (const int u : nbrs) {
      // adj(u) := (adj(u) \ {v}) | (nbrs \ {u}), merging sorted ranges: v
      // occurs only in adj(u), and u only in nbrs.
      const std::vector<int>& old = adj_[u];
      merged_.clear();
      auto a = old.begin();
      auto b = nbrs.begin();
      while (a != old.end() || b != nbrs.end()) {
        if (b == nbrs.end() || (a != old.end() && *a < *b)) {
          if (*a != v) merged_.push_back(*a);
          ++a;
        } else if (a == old.end() || *b < *a) {
          if (*b != u) {
            merged_.push_back(*b);
            if (fill != nullptr && u < *b) fill->emplace_back(u, *b);
          }
          ++b;
        } else {
          merged_.push_back(*a);
          ++a;
          ++b;
        }
      }
      adj_[u].swap(merged_);
    }
    return nbrs;
  }

  // Number of fill edges eliminating x would add: pairs of x's neighbors
  // that are not adjacent.
  int64_t FillIn(int x) {
    const std::vector<int>& nx = adj_[x];
    const int64_t d = static_cast<int64_t>(nx.size());
    if (d < 2) return 0;
    if (++epoch_ == 0) {  // wrapped: clear the stale marks
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    for (const int w : nx) stamp_[w] = epoch_;
    int64_t links = 0;  // adjacent pairs among nx, each counted twice
    for (const int a : nx) {
      const std::vector<int>& na = adj_[a];
      if (na.size() <= nx.size()) {
        for (const int b : na) links += stamp_[b] == epoch_;
      } else {  // a is a hub: probe its list for x's fewer neighbors
        for (const int b : nx) {
          links += std::binary_search(na.begin(), na.end(), b);
        }
      }
    }
    return d * (d - 1) / 2 - links / 2;
  }

 private:
  std::vector<std::vector<int>> adj_;
  std::vector<int> merged_;  // scratch for Eliminate
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

// The greedy pass. When `bags` is non-null, (*bags)[v] receives v's
// neighborhood at its elimination. Returns nullopt, before eliminating it,
// at the first vertex whose neighborhood is larger than `max_width`: the
// order's width is its largest elimination neighborhood, so the pass stops
// exactly when the finished order's width would exceed the cap.
std::optional<std::vector<int>> GreedyPass(
    const Graph& graph, EliminationHeuristic heuristic,
    std::vector<std::vector<int>>* bags,
    int max_width = std::numeric_limits<int>::max()) {
  EliminationGraph g(graph);
  const int n = graph.num_vertices();
  const bool by_fill = heuristic == EliminationHeuristic::kMinFill;
  const auto score_of = [&](int v) -> int64_t {
    return by_fill ? g.FillIn(v)
                   : static_cast<int64_t>(g.Neighbors(v).size());
  };
  // Ordered by (score, id), so begin() is the lowest-id best vertex.
  std::set<std::pair<int64_t, int>> queue;
  std::vector<int64_t> score(n);
  for (int v = 0; v < n; ++v) {
    score[v] = score_of(v);
    queue.emplace(score[v], v);
  }
  std::vector<int> order;
  order.reserve(n);
  EliminationGraph::Edges fill;
  std::vector<int> neighbor_at(n, -1);  // last step it was in N(v)
  std::vector<int64_t> lost(n, 0);      // fill pairs closed this step
  std::vector<int> losers;
  const auto requeue = [&](int w, int64_t s) {
    if (s == score[w]) return;
    queue.erase({score[w], w});
    score[w] = s;
    queue.emplace(s, w);
  };
  while (!queue.empty()) {
    const int step = static_cast<int>(order.size());
    const int v = queue.begin()->second;
    if (static_cast<int>(g.Neighbors(v).size()) > max_width) {
      return std::nullopt;
    }
    queue.erase(queue.begin());
    order.push_back(v);
    fill.clear();
    std::vector<int> nbrs = g.Eliminate(v, by_fill ? &fill : nullptr);
    // Only scores near v change. Each neighbor's neighborhood changed, so
    // it is rescored. Any other vertex keeps its neighborhood, and each
    // fill edge {a, b} inside it closes one of its fill pairs: those
    // vertices are the common neighbors of a and b outside N(v).
    for (const int u : nbrs) neighbor_at[u] = step;
    for (const auto& [a, b] : fill) {
      const std::vector<int>& na = g.Neighbors(a);
      const std::vector<int>& nb = g.Neighbors(b);
      const std::vector<int>& small = na.size() <= nb.size() ? na : nb;
      const std::vector<int>& large = na.size() <= nb.size() ? nb : na;
      for (const int x : small) {
        if (neighbor_at[x] == step ||
            !std::binary_search(large.begin(), large.end(), x)) {
          continue;
        }
        if (lost[x]++ == 0) losers.push_back(x);
      }
    }
    for (const int u : nbrs) requeue(u, score_of(u));
    for (const int x : losers) {
      requeue(x, score[x] - lost[x]);
      lost[x] = 0;
    }
    losers.clear();
    if (bags != nullptr) (*bags)[v] = std::move(nbrs);
  }
  return order;
}

// Links the bags of an elimination order into a tree. `bags[v]` is v's
// neighborhood at its elimination; v's bag is that plus v.
TreeDecomposition DecompositionFromBags(const std::vector<int>& order,
                                        std::vector<std::vector<int>> bags) {
  const int n = static_cast<int>(order.size());
  TreeDecomposition td;
  if (n == 0) {
    td.AddNode({}, -1);
    return td;
  }
  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[order[i]] = i;
  // Every neighbor of v at its elimination is eliminated after v. v's
  // parent is the first of them to go, and the last vertex eliminated is
  // the root. Building in reverse elimination order gives parents smaller
  // TreeDecomposition ids than their children.
  std::vector<int> td_id(n, -1);
  for (int i = n - 1; i >= 0; --i) {
    const int v = order[i];
    int parent_vertex = -1;
    int best_pos = std::numeric_limits<int>::max();
    for (const int w : bags[v]) {
      if (position[w] < best_pos) {
        best_pos = position[w];
        parent_vertex = w;
      }
    }
    bags[v].push_back(v);
    int parent_id = -1;
    if (parent_vertex >= 0) {
      parent_id = td_id[parent_vertex];
    } else if (td.num_nodes() > 0) {
      // Disconnected graph: attach to the root to keep a single tree.
      parent_id = td.root();
    }
    td_id[v] = td.AddNode(std::move(bags[v]), parent_id);
  }
  return td;
}

}  // namespace

std::vector<int> GreedyEliminationOrder(const Graph& graph,
                                        EliminationHeuristic heuristic) {
  return *GreedyPass(graph, heuristic, nullptr);
}

int EliminationOrderWidth(const Graph& graph, const std::vector<int>& order) {
  EliminationGraph g(graph);
  int width = 0;
  for (const int v : order) {
    width = std::max(width, static_cast<int>(g.Eliminate(v).size()));
  }
  return width;
}

TreeDecomposition DecompositionFromOrder(const Graph& graph,
                                         const std::vector<int>& order) {
  const int n = graph.num_vertices();
  CTSDD_CHECK_EQ(static_cast<int>(order.size()), n);
  EliminationGraph g(graph);
  std::vector<std::vector<int>> bags(n);
  for (const int v : order) bags[v] = g.Eliminate(v);
  return DecompositionFromBags(order, std::move(bags));
}

TreeDecomposition HeuristicDecomposition(const Graph& graph) {
  return *HeuristicDecomposition(graph, std::numeric_limits<int>::max());
}

std::optional<TreeDecomposition> HeuristicDecomposition(const Graph& graph,
                                                        int max_width) {
  std::vector<std::vector<int>> bags(graph.num_vertices());
  const std::optional<std::vector<int>> order =
      GreedyPass(graph, EliminationHeuristic::kMinFill, &bags, max_width);
  if (!order) return std::nullopt;
  return DecompositionFromBags(*order, std::move(bags));
}

}  // namespace ctsdd
