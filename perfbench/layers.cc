#include "layers.h"

#include <map>

#include "circuit/primal_graph.h"
#include "db/lineage.h"
#include "db/query_compile.h"
#include "graph/elimination.h"
#include "graph/exact_treewidth.h"
#include "obdd/obdd_compile.h"
#include "obs/trace.h"
#include "sdd/sdd_compile.h"
#include "serve/serve_stats.h"
#include "vtree/from_decomposition.h"

namespace perfbench {

using namespace ctsdd;

StatusOr<Circuit> Lineage(const Ucq& query, const Database& db) {
  obs::TraceSpan span("bench", "db.lineage");
  return BuildLineage(query, db);
}

void PredictWidth(const Circuit& circuit) {
  static const int kMaxGates = ServeOptions{}.width_predict_max_gates;
  if (circuit.num_gates() > kMaxGates) return;
  obs::TraceSpan span("bench", "graph.width_predict");
  (void)HeuristicCircuitTreewidth(circuit);
  if (circuit.num_gates() <= kMaxExactVertices) {
    (void)ExactCircuitTreewidth(circuit);
    (void)ExactPathwidth(PrimalGraph(circuit));
  }
}

TreeDecomposition Decompose(const Circuit& circuit) {
  obs::TraceSpan span("bench", "graph.decompose");
  return HeuristicDecomposition(PrimalGraph(circuit));
}

StatusOr<Vtree> Lemma1Vtree(const Circuit& circuit,
                            const TreeDecomposition& td) {
  obs::TraceSpan span("bench", "vtree.build");
  return VtreeFromNiceDecomposition(circuit, MakeNice(td));
}

StatusOr<Vtree> BalancedVtree(const Circuit& circuit) {
  obs::TraceSpan span("bench", "vtree.build");
  return VtreeForStrategy(circuit, circuit.Vars(), VtreeStrategy::kBalanced);
}

ObddManager::NodeId CompileObdd(ObddManager* manager, const Circuit& circuit) {
  obs::TraceSpan span("bench", "obdd.compile");
  return CompileCircuitToObdd(manager, circuit);
}

SddManager::NodeId CompileSdd(SddManager* manager, const Circuit& circuit) {
  obs::TraceSpan span("bench", "sdd.compile");
  return CompileCircuitToSdd(manager, circuit);
}

double ObddWmc(const ObddManager& manager, ObddManager::NodeId root,
               const std::vector<double>& weight_of_var) {
  std::vector<double> prob_by_level(manager.var_order().size());
  for (size_t i = 0; i < prob_by_level.size(); ++i) {
    prob_by_level[i] =
        weight_of_var[static_cast<size_t>(manager.var_order()[i])];
  }
  obs::TraceSpan span("bench", "obdd.wmc");
  return manager.WeightedModelCount(root, prob_by_level);
}

double SddWmc(const SddManager& manager, SddManager::NodeId root,
              const std::vector<double>& weight_of_var) {
  std::map<int, double> probs;
  for (const int v : manager.vtree().Vars()) {
    probs[v] = weight_of_var[static_cast<size_t>(v)];
  }
  obs::TraceSpan span("bench", "sdd.wmc");
  return manager.WeightedModelCount(root, probs);
}

void LayerTally::AddLineage(const Circuit& lineage) {
  ++lineages_;
  lineage_gates_ += static_cast<uint64_t>(lineage.num_gates());
}

void LayerTally::AddObdd(int nodes) {
  ++obdd_compiles_;
  obdd_nodes_ += static_cast<uint64_t>(nodes);
}

void LayerTally::AddSdd(const SddManager& manager, int nodes) {
  ++sdd_compiles_;
  sdd_nodes_ += static_cast<uint64_t>(nodes);
  apply_calls_ += manager.counters().apply_calls;
  element_products_ += manager.counters().element_products;
  const SddManager::CacheStats stats[3] = {manager.apply_cache_stats(),
                                           manager.sem_cache_stats(),
                                           manager.apply_memo_stats()};
  for (int i = 0; i < 3; ++i) {
    lookups_[i] += stats[i].lookups;
    hits_[i] += stats[i].hits;
  }
}

void LayerTally::AppendCounters(NamedValues* out) const {
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  out->emplace_back("db.lineage_gates.mean", ratio(lineage_gates_, lineages_));
  out->emplace_back("obdd.nodes", ratio(obdd_nodes_, obdd_compiles_));
  out->emplace_back("sdd.nodes", ratio(sdd_nodes_, sdd_compiles_));
  out->emplace_back("sdd.apply_calls", ratio(apply_calls_, sdd_compiles_));
  out->emplace_back("sdd.element_products",
                    ratio(element_products_, sdd_compiles_));
  out->emplace_back("sdd.apply_cache.hit_ratio", ratio(hits_[0], lookups_[0]));
  out->emplace_back("sdd.sem_cache.hit_ratio", ratio(hits_[1], lookups_[1]));
  out->emplace_back("sdd.apply_memo.hit_ratio", ratio(hits_[2], lookups_[2]));
}

}  // namespace perfbench
