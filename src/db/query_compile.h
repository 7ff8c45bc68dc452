// Query compilation (Section 1): lineage -> tractable circuit ->
// probability. Implements the OBDD and SDD routes with selectable
// vtree/order strategies, including the paper's treewidth-driven pipeline.

#ifndef CTSDD_DB_QUERY_COMPILE_H_
#define CTSDD_DB_QUERY_COMPILE_H_

#include <string>

#include <vector>

#include "circuit/circuit.h"
#include "db/database.h"
#include "db/lineage.h"
#include "db/query.h"
#include "obdd/obdd.h"
#include "sdd/sdd.h"
#include "util/status.h"
#include "vtree/vtree.h"

namespace ctsdd {

enum class VtreeStrategy {
  kRightLinear,  // OBDD-style, tuple-id order
  kBalanced,
  kFromTreewidth,  // Lemma 1 vtree from the lineage circuit
};

// The vtree the given strategy prescribes for compiling `circuit`, whose
// sorted variable set is `vars` (non-empty).
StatusOr<Vtree> VtreeForStrategy(const Circuit& circuit,
                                 const std::vector<int>& vars,
                                 VtreeStrategy strategy);

// Largest min-fill width at which VtreeForLineage serves the Lemma 1
// vtree. On the serve population, hierarchical RS has width 2, H0 6 and
// the inequality query 9; every cap from 2 to 5 splits them the same way.
inline constexpr int kLemma1ServeMaxWidth = 3;

// A vtree and the strategy that produced it (kFromTreewidth or kBalanced).
struct LineageVtree {
  Vtree vtree;
  VtreeStrategy strategy = VtreeStrategy::kBalanced;
};

// The serve path's SDD vtree for the lineage `circuit` over its sorted
// variables `vars` (non-empty). A lineage with more than
// kSemanticCircuitMaxVars variables compiles by apply, where the Lemma 1
// vtree makes small-width lineages far smaller (about 4,300 elements on
// balanced against 167 for hierarchical RS at domain 8). It gets that
// vtree when the min-fill pass over its primal graph finishes within
// kLemma1ServeMaxWidth; the pass gives up at its first wider elimination,
// so a wide lineage pays only that prefix. Every other lineage, and every
// semantic-route lineage (whose compile the decomposition would only
// slow), gets the balanced vtree.
StatusOr<LineageVtree> VtreeForLineage(const Circuit& circuit,
                                       const std::vector<int>& vars);

struct QueryCompilation {
  int num_tuples = 0;
  int lineage_gates = 0;
  double probability = 0.0;

  // OBDD route (tuple-id order).
  int obdd_size = 0;
  int obdd_width = 0;

  // SDD route (per the chosen strategy).
  int sdd_size = 0;
  int sdd_width = 0;

  std::string DebugString() const;
};

// Compiles L(Q, D) to both an OBDD (tuple-id order) and an SDD (chosen
// strategy), checks the two probabilities agree, and returns statistics.
// The default is the balanced vtree: kFromTreewidth runs an uncapped
// min-fill pass and can take minutes where the lineage's width is large
// (9 for InequalityExampleQuery at domain 8), so callers ask for it
// explicitly. The serve path picks per lineage (VtreeForLineage).
StatusOr<QueryCompilation> CompileQuery(
    const Ucq& query, const Database& db,
    VtreeStrategy strategy = VtreeStrategy::kBalanced);

}  // namespace ctsdd

#endif  // CTSDD_DB_QUERY_COMPILE_H_
