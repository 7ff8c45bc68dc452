// Compiling circuits and semantic functions into canonical SDDs.
//
// Because the manager maintains compressed + trimmed (canonical) form, the
// result is *the* canonical SDD of the function for the manager's vtree,
// regardless of the construction route (Darwiche 2011; the paper's S_{F,T}
// in Section 3.2.2 is the same object, and compile/sdd_canonical.cc builds
// it directly from factors — the constructions are cross-checked in the
// tests).
//
// Explicit functions compile by recursing on the vtree. At each internal
// node v the compiler partitions the current subfunction into its
// distinct left-scope cofactors with one word-parallel
// BoolFunc::CofactorsOver sweep, and emits the already-compressed
// {(prime_i, sub_i)} partition directly — the primes are the cofactor
// equivalence classes, so no Shannon expansion and no Or(And, And)
// applies ever run. Memoized per subfunction (the minimal vtree node is
// determined by the subfunction's support, so the function alone is the
// key). The randomized equivalence tests cross-check it against a
// Shannon-expansion oracle built from binary applies.
//
// Circuit compilation picks the semantic route automatically when the
// circuit's variable count makes an explicit truth table cheap (the
// word-parallel circuit sweep plus the partition recursion beat thousands
// of small applies by orders of magnitude); wider circuits use the
// bottom-up apply route with the manager's n-ary folds.

#ifndef CTSDD_SDD_SDD_COMPILE_H_
#define CTSDD_SDD_SDD_COMPILE_H_

#include "circuit/circuit.h"
#include "func/bool_func.h"
#include "sdd/sdd.h"

namespace ctsdd {

// Largest circuit variable count routed through the semantic compiler by
// CompileCircuitToSdd (2^18-entry tables; must be <= BoolFunc::kMaxVars).
inline constexpr int kSemanticCircuitMaxVars = 18;

// Bottom-up apply-based compilation of a circuit, with the semantic
// fast path for small variable counts. The manager's vtree must contain
// every circuit variable.
SddManager::NodeId CompileCircuitToSdd(SddManager* manager,
                                       const Circuit& circuit);

// Compilation of an explicit function (see the notes above).
SddManager::NodeId CompileFuncToSdd(SddManager* manager, const BoolFunc& f);

struct SddStats {
  int size = 0;       // total elements (AND gates)
  int width = 0;      // Definition 5 width
  int decisions = 0;  // decision (OR) nodes
};

SddStats ComputeSddStats(const SddManager& manager, SddManager::NodeId root);

}  // namespace ctsdd

#endif  // CTSDD_SDD_SDD_COMPILE_H_
