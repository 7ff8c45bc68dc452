// Bench-side spans around the public layer functions.
//
// Each wrapper makes exactly the call a user of that layer makes, inside
// an obs::TraceSpan of category "bench" named after the layer
// ("db.lineage", "graph.width_predict", "graph.decompose", "vtree.build",
// "obdd.compile", "sdd.compile", "obdd.wmc", "sdd.wmc"). A traced run
// turns those spans into per-layer latency distributions without any new
// tracing inside the library; disarmed, a span costs one relaxed load.
// LayerTally adds the size and work counters the spans cannot carry.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "db/database.h"
#include "db/query.h"
#include "graph/tree_decomposition.h"
#include "harness.h"
#include "obdd/obdd.h"
#include "sdd/sdd.h"
#include "util/status.h"
#include "vtree/vtree.h"

namespace perfbench {

ctsdd::StatusOr<ctsdd::Circuit> Lineage(const ctsdd::Ucq& query,
                                        const ctsdd::Database& db);

// The serving shard's width prediction for a lineage circuit: min-fill
// treewidth under the default gate cap, plus exact treewidth and
// pathwidth when the circuit fits the exact engines.
void PredictWidth(const ctsdd::Circuit& circuit);

// Min-fill tree decomposition of the circuit's primal graph.
ctsdd::TreeDecomposition Decompose(const ctsdd::Circuit& circuit);

// The Lemma 1 vtree from a decomposition made nice.
ctsdd::StatusOr<ctsdd::Vtree> Lemma1Vtree(const ctsdd::Circuit& circuit,
                                          const ctsdd::TreeDecomposition& td);

// The serving route's vtree: balanced over the lineage variables.
ctsdd::StatusOr<ctsdd::Vtree> BalancedVtree(const ctsdd::Circuit& circuit);

ctsdd::ObddManager::NodeId CompileObdd(ctsdd::ObddManager* manager,
                                       const ctsdd::Circuit& circuit);
ctsdd::SddManager::NodeId CompileSdd(ctsdd::SddManager* manager,
                                     const ctsdd::Circuit& circuit);

// Probability of a compiled diagram when variable v is true with
// probability weight_of_var[v].
double ObddWmc(const ctsdd::ObddManager& manager,
               ctsdd::ObddManager::NodeId root,
               const std::vector<double>& weight_of_var);
double SddWmc(const ctsdd::SddManager& manager, ctsdd::SddManager::NodeId root,
              const std::vector<double>& weight_of_var);

// Sizes and SDD work counters over a set of compiles, reported as
// per-compile means and lookup-based hit ratios.
class LayerTally {
 public:
  void AddLineage(const ctsdd::Circuit& lineage);
  void AddObdd(int nodes);
  // Reads the manager's counters: pass each compile's fresh manager once.
  void AddSdd(const ctsdd::SddManager& manager, int nodes);
  void AppendCounters(NamedValues* out) const;

 private:
  uint64_t lineages_ = 0;
  uint64_t lineage_gates_ = 0;
  uint64_t obdd_compiles_ = 0;
  uint64_t obdd_nodes_ = 0;
  uint64_t sdd_compiles_ = 0;
  uint64_t sdd_nodes_ = 0;
  uint64_t apply_calls_ = 0;
  uint64_t element_products_ = 0;
  // Lookups and hits per SDD cache: apply cache, semantic cache, memo.
  uint64_t lookups_[3] = {0, 0, 0};
  uint64_t hits_[3] = {0, 0, 0};
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
