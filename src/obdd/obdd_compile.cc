#include "obdd/obdd_compile.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace ctsdd {

ObddManager::NodeId CompileCircuitToObdd(ObddManager* manager,
                                         const Circuit& circuit) {
  CTSDD_CHECK_GE(circuit.output(), 0);
  std::vector<ObddManager::NodeId> value(circuit.num_gates());
  for (int id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    switch (g.kind) {
      case GateKind::kConstFalse:
        value[id] = manager->False();
        break;
      case GateKind::kConstTrue:
        value[id] = manager->True();
        break;
      case GateKind::kVar:
        value[id] = manager->Literal(g.var, true);
        break;
      case GateKind::kNot:
        value[id] = manager->Not(value[g.inputs[0]]);
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        // Multi-way apply (neutral operands dropped, absorbing terminals
        // short-circuited inside AndN/OrN): one simultaneous-cofactor
        // sweep, or for wide conjunctions a fold along the variable order
        // (ObddManager::AndN).
        std::vector<ObddManager::NodeId> inputs;
        inputs.reserve(g.inputs.size());
        for (int input : g.inputs) inputs.push_back(value[input]);
        value[id] = g.kind == GateKind::kAnd
                        ? manager->AndN(std::move(inputs))
                        : manager->OrN(std::move(inputs));
        break;
      }
    }
  }
  return value[circuit.output()];
}

ObddManager::NodeId CompileFuncToObdd(ObddManager* manager,
                                      const BoolFunc& f) {
  if (f.IsConstantFalse()) return manager->False();
  if (f.IsConstantTrue()) return manager->True();
  // Order f's variables by manager level.
  std::vector<int> vars = f.vars();
  std::sort(vars.begin(), vars.end(), [&](int a, int b) {
    return manager->LevelOf(a) < manager->LevelOf(b);
  });
  for (int v : vars) {
    CTSDD_CHECK_GE(manager->LevelOf(v), 0)
        << "variable x" << v << " missing from OBDD order";
  }
  const int n = static_cast<int>(vars.size());
  if (n <= 20) {
    // Direct layered construction: one terminal per table entry, then one
    // MakeNode sweep per level from the deepest variable up. The unique
    // table deduplicates and the reduction rule collapses as the layers
    // shrink, so no function-valued memo (and none of its allocation and
    // hashing traffic) is needed. Index convention: bit (n-1-k) of a
    // layer index holds the value of vars[k], so the deepest variable is
    // bit 0 and one merge step halves the layer.
    std::vector<int> pos(n);
    for (int k = 0; k < n; ++k) {
      pos[k] = static_cast<int>(
          std::lower_bound(f.vars().begin(), f.vars().end(), vars[k]) -
          f.vars().begin());
    }
    std::vector<ObddManager::NodeId> layer(1u << n);
    for (uint32_t j = 0; j < (1u << n); ++j) {
      uint32_t index = 0;
      for (int k = 0; k < n; ++k) {
        if ((j >> (n - 1 - k)) & 1) index |= 1u << pos[k];
      }
      layer[j] = f.EvalIndex(index) ? manager->True() : manager->False();
    }
    for (int d = n - 1; d >= 0; --d) {
      const int level = manager->LevelOf(vars[d]);
      for (uint32_t j = 0; j < (1u << d); ++j) {
        layer[j] = manager->MakeNode(level, layer[2 * j], layer[2 * j + 1]);
      }
    }
    return layer[0];
  }
  // Beyond 2^20 table entries the layer array would dominate memory;
  // fall back to Shannon expansion memoized on the subfunction itself.
  std::unordered_map<BoolFunc, ObddManager::NodeId, BoolFunc::Hasher> memo;
  std::function<ObddManager::NodeId(const BoolFunc&, size_t)> rec =
      [&](const BoolFunc& g, size_t next) -> ObddManager::NodeId {
    if (g.IsConstantFalse()) return manager->False();
    if (g.IsConstantTrue()) return manager->True();
    const auto it = memo.find(g);
    if (it != memo.end()) return it->second;
    CTSDD_CHECK_LT(next, vars.size());
    const int var = vars[next];
    const ObddManager::NodeId lo = rec(g.Restrict(var, false), next + 1);
    const ObddManager::NodeId hi = rec(g.Restrict(var, true), next + 1);
    // Children are over strictly later levels, so the node can be built
    // directly instead of through a full Ite.
    const ObddManager::NodeId result =
        manager->MakeNode(manager->LevelOf(var), lo, hi);
    if (result < 0) return result;  // budget abort: never memoized
    memo.emplace(g, result);
    return result;
  };
  return rec(f, 0);
}

ObddStats ObddStatsForOrder(const BoolFunc& f, const std::vector<int>& order) {
  ObddManager manager(order);
  const auto root = CompileFuncToObdd(&manager, f);
  return {manager.Size(root), manager.Width(root), order};
}

ObddStats BestObddOverAllOrders(const BoolFunc& f, bool minimize_width) {
  CTSDD_CHECK_LE(f.num_vars(), 10) << "exhaustive order search too large";
  std::vector<int> order = f.vars();
  std::sort(order.begin(), order.end());
  ObddStats best;
  bool first = true;
  do {
    const ObddStats stats = ObddStatsForOrder(f, order);
    const int objective = minimize_width ? stats.width : stats.size;
    const int best_objective = minimize_width ? best.width : best.size;
    if (first || objective < best_objective) {
      best = stats;
      first = false;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

ObddStats BestObddBySifting(const BoolFunc& f, bool minimize_width,
                            int rounds) {
  std::vector<int> order = f.vars();
  ObddStats best = ObddStatsForOrder(f, order);
  auto objective = [&](const ObddStats& s) {
    return minimize_width ? s.width : s.size;
  };
  for (int round = 0; round < rounds; ++round) {
    bool improved = false;
    // Move each variable through every position, keep the best placement.
    for (size_t i = 0; i < order.size(); ++i) {
      for (size_t j = 0; j < order.size(); ++j) {
        if (i == j) continue;
        std::vector<int> candidate = best.order;
        const int var = candidate[i];
        candidate.erase(candidate.begin() + i);
        candidate.insert(candidate.begin() + j, var);
        const ObddStats stats = ObddStatsForOrder(f, candidate);
        if (objective(stats) < objective(best)) {
          best = stats;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  return best;
}

}  // namespace ctsdd
