#include "db/query_compile.h"

#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "circuit/primal_graph.h"
#include "compile/pipeline.h"
#include "graph/elimination.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd_compile.h"
#include "util/logging.h"
#include "vtree/from_decomposition.h"

namespace ctsdd {

std::string QueryCompilation::DebugString() const {
  std::ostringstream os;
  os << "tuples=" << num_tuples << " lineage_gates=" << lineage_gates
     << " P=" << probability << " obdd(size=" << obdd_size
     << ",width=" << obdd_width << ") sdd(size=" << sdd_size
     << ",width=" << sdd_width << ")";
  return os.str();
}

StatusOr<Vtree> VtreeForStrategy(const Circuit& circuit,
                                 const std::vector<int>& vars,
                                 VtreeStrategy strategy) {
  switch (strategy) {
    case VtreeStrategy::kRightLinear:
      return Vtree::RightLinear(vars);
    case VtreeStrategy::kBalanced:
      return Vtree::Balanced(vars);
    case VtreeStrategy::kFromTreewidth:
      return VtreeForCircuit(circuit);
  }
  return Status::InvalidArgument("unknown vtree strategy");
}

StatusOr<LineageVtree> VtreeForLineage(const Circuit& circuit,
                                       const std::vector<int>& vars) {
  if (static_cast<int>(vars.size()) > kSemanticCircuitMaxVars) {
    const std::optional<TreeDecomposition> td =
        HeuristicDecomposition(PrimalGraph(circuit), kLemma1ServeMaxWidth);
    if (td) {
      auto vtree = VtreeFromNiceDecomposition(circuit, MakeNice(*td));
      CTSDD_RETURN_IF_ERROR(vtree.status());
      return LineageVtree{std::move(vtree).value(),
                          VtreeStrategy::kFromTreewidth};
    }
  }
  return LineageVtree{Vtree::Balanced(vars), VtreeStrategy::kBalanced};
}

StatusOr<QueryCompilation> CompileQuery(const Ucq& query, const Database& db,
                                        VtreeStrategy strategy) {
  auto lineage = BuildLineage(query, db);
  CTSDD_RETURN_IF_ERROR(lineage.status());
  const Circuit& circuit = lineage.value();

  QueryCompilation out;
  out.num_tuples = db.num_tuples();
  out.lineage_gates = circuit.num_gates();

  // Variables of the lineage (a tuple may not appear in any grounding).
  const std::vector<int> vars = circuit.Vars();

  // --- OBDD route: tuple-id order. ---
  std::vector<int> order = vars;
  ObddManager obdd(order);
  const auto obdd_root = CompileCircuitToObdd(&obdd, circuit);
  out.obdd_size = obdd.Size(obdd_root);
  out.obdd_width = obdd.Width(obdd_root);
  std::vector<double> prob_by_level(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    prob_by_level[i] = db.TupleProb(order[i]);
  }
  const double obdd_prob = obdd.WeightedModelCount(obdd_root, prob_by_level);

  // --- SDD route. ---
  double sdd_prob = 0.0;
  if (vars.empty()) {
    // Constant lineage.
    sdd_prob = obdd_prob;
  } else {
    auto vtree_or = VtreeForStrategy(circuit, vars, strategy);
    CTSDD_RETURN_IF_ERROR(vtree_or.status());
    Vtree vtree = std::move(vtree_or).value();
    SddManager sdd(vtree);
    const auto sdd_root = CompileCircuitToSdd(&sdd, circuit);
    const SddStats stats = ComputeSddStats(sdd, sdd_root);
    out.sdd_size = stats.size;
    out.sdd_width = stats.width;
    std::map<int, double> probs;
    for (int v : vars) probs[v] = db.TupleProb(v);
    sdd_prob = sdd.WeightedModelCount(sdd_root, probs);
  }

  if (std::fabs(obdd_prob - sdd_prob) > 1e-9) {
    return Status::Internal("OBDD and SDD probabilities disagree: " +
                            std::to_string(obdd_prob) + " vs " +
                            std::to_string(sdd_prob));
  }
  out.probability = obdd_prob;
  return out;
}

}  // namespace ctsdd
