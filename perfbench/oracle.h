// Reference answers for the correctness check, computed without the
// serving layer and without the compiled diagram under test.
//
// A lineage with at most kBruteForceMaxVars variables is enumerated: the
// circuit is evaluated on every assignment, 64 assignments per machine
// word, and the probability is the weighted sum over its truth table.
// Wider lineages are compiled once into a fresh, unpooled OBDD in tuple-id
// order, whose weighted model count is taken per weight vector.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.h"
#include "obdd/obdd.h"

namespace perfbench {

inline constexpr int kBruteForceMaxVars = 20;

// Absolute tolerance on a probability before an answer counts as wrong.
inline constexpr double kAnswerTolerance = 1e-9;

// Evaluates `circuit` on 64 assignments at once: bit k of lanes[v] is the
// value of variable v in assignment k. Returns the output gate's word.
uint64_t EvaluateLanes(const ctsdd::Circuit& circuit,
                       const std::vector<uint64_t>& lanes);

class Reference {
 public:
  explicit Reference(const ctsdd::Circuit& lineage);

  // Probability of the lineage when variable v is true with probability
  // weight_of_var[v].
  double Probability(const std::vector<double>& weight_of_var) const;

 private:
  std::vector<int> vars_;  // sorted lineage variables (tuple ids)
  // Brute force: bit r of the table is the lineage's value on the
  // assignment whose bit j sets vars_[j].
  std::vector<uint64_t> table_;
  std::unique_ptr<ctsdd::ObddManager> obdd_;
  ctsdd::ObddManager::NodeId root_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
