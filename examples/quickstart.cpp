// Quickstart: build a Boolean circuit, compile it to an OBDD and to an
// SDD, count models, and compute a probability — the end-to-end workflow
// of the library in ~60 lines.
//
//   $ ./quickstart

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>

#include "circuit/builder.h"
#include "circuit/eval.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "vtree/vtree.h"

int main() {
  using namespace ctsdd;

  // 1. Build a circuit: F = (x0 & x1) | (!x0 & x2) | (x1 & x3).
  Circuit circuit;
  ExprFactory f(&circuit);
  f.SetOutput((f.Var(0) & f.Var(1)) | ((!f.Var(0)) & f.Var(2)) |
              (f.Var(1) & f.Var(3)));
  std::printf("circuit: %d gates over %d variables\n", circuit.num_gates(),
              static_cast<int>(circuit.Vars().size()));

  // 2. Compile to an OBDD with variable order x0 < x1 < x2 < x3.
  ObddManager obdd({0, 1, 2, 3});
  const auto obdd_root = CompileCircuitToObdd(&obdd, circuit);
  std::printf("OBDD: size=%d width=%d models=%llu\n", obdd.Size(obdd_root),
              obdd.Width(obdd_root),
              static_cast<unsigned long long>(obdd.CountModels(obdd_root)));

  // 3. Compile to a canonical SDD on a balanced vtree.
  SddManager sdd(Vtree::Balanced({0, 1, 2, 3}));
  const auto sdd_root = CompileCircuitToSdd(&sdd, circuit);
  std::printf("SDD:  size=%d width=%d models=%llu\n", sdd.Size(sdd_root),
              sdd.Width(sdd_root),
              static_cast<unsigned long long>(sdd.CountModels(sdd_root)));

  // 4. Probability computation: each variable independently true with the
  // given probability; both compiled forms support linear-time weighted
  // model counting and must agree.
  const double p_obdd =
      obdd.WeightedModelCount(obdd_root, {0.5, 0.9, 0.2, 0.4});
  std::map<int, double> probs = {{0, 0.5}, {1, 0.9}, {2, 0.2}, {3, 0.4}};
  const double p_sdd = sdd.WeightedModelCount(sdd_root, probs);
  std::printf("P(F) via OBDD = %.6f, via SDD = %.6f\n", p_obdd, p_sdd);

  // 5. Cross-check against brute force; exit 1 on any disagreement.
  const uint64_t brute = BruteForceModelCount(circuit);
  std::printf("brute-force model count = %llu\n",
              static_cast<unsigned long long>(brute));
  if (obdd.CountModels(obdd_root) != brute ||
      sdd.CountModels(sdd_root) != brute || std::abs(p_obdd - p_sdd) > 1e-9) {
    std::printf("MISMATCH\n");
    return 1;
  }
  return 0;
}
