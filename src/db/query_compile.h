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
// sorted variable set is `vars` (non-empty). Shared by the one-shot
// CompileQuery below and the serve/ layer's plan compiler.
StatusOr<Vtree> VtreeForStrategy(const Circuit& circuit,
                                 const std::vector<int>& vars,
                                 VtreeStrategy strategy);

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
// The default is the serve path's balanced vtree: kFromTreewidth pays for
// min-fill and can take minutes where the lineage's width is large (9 for
// InequalityExampleQuery at domain 8), so callers ask for it explicitly.
StatusOr<QueryCompilation> CompileQuery(
    const Ucq& query, const Database& db,
    VtreeStrategy strategy = VtreeStrategy::kBalanced);

}  // namespace ctsdd

#endif  // CTSDD_DB_QUERY_COMPILE_H_
