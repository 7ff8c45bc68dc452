#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obdd/obdd_compile.h"

namespace perfbench {

using ctsdd::Circuit;
using ctsdd::Gate;
using ctsdd::GateKind;

uint64_t EvaluateLanes(const Circuit& circuit,
                       const std::vector<uint64_t>& lanes) {
  std::vector<uint64_t> value(static_cast<size_t>(circuit.num_gates()));
  for (int g = 0; g < circuit.num_gates(); ++g) {
    const Gate& gate = circuit.gate(g);
    uint64_t v = 0;
    switch (gate.kind) {
      case GateKind::kConstFalse:
        v = 0;
        break;
      case GateKind::kConstTrue:
        v = ~uint64_t{0};
        break;
      case GateKind::kVar:
        v = lanes[static_cast<size_t>(gate.var)];
        break;
      case GateKind::kNot:
        v = ~value[static_cast<size_t>(gate.inputs[0])];
        break;
      case GateKind::kAnd:
        v = ~uint64_t{0};
        for (const int in : gate.inputs) v &= value[static_cast<size_t>(in)];
        break;
      case GateKind::kOr:
        v = 0;
        for (const int in : gate.inputs) v |= value[static_cast<size_t>(in)];
        break;
    }
    value[static_cast<size_t>(g)] = v;
  }
  return value[static_cast<size_t>(circuit.output())];
}

Reference::Reference(const Circuit& lineage) : vars_(lineage.Vars()) {
  const int n = static_cast<int>(vars_.size());
  if (n > kBruteForceMaxVars) {
    obdd_ = std::make_unique<ctsdd::ObddManager>(vars_);
    root_ = ctsdd::CompileCircuitToObdd(obdd_.get(), lineage);
    if (root_ < 0) {
      std::fprintf(stderr, "reference OBDD compile failed\n");
      std::exit(2);
    }
    return;
  }
  // Assignment r sets vars_[j] to bit j of r; within a word, lane bits
  // 0..5 are the low six variables and the word index holds the rest.
  static constexpr uint64_t kLanePattern[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const uint64_t rows = uint64_t{1} << n;
  const uint64_t words = (rows + 63) / 64;
  std::vector<uint64_t> lanes(
      static_cast<size_t>(std::max(lineage.num_vars(), 1)), 0);
  table_.resize(words);
  for (uint64_t w = 0; w < words; ++w) {
    for (int j = 0; j < n; ++j) {
      lanes[static_cast<size_t>(vars_[j])] =
          j < 6 ? kLanePattern[j]
                : (((w >> (j - 6)) & 1) != 0 ? ~uint64_t{0} : 0);
    }
    table_[w] = EvaluateLanes(lineage, lanes);
  }
  if (rows < 64) table_[0] &= (uint64_t{1} << rows) - 1;
}

double Reference::Probability(const std::vector<double>& weight_of_var) const {
  if (obdd_ != nullptr) {
    std::vector<double> prob_by_level(vars_.size());
    for (size_t i = 0; i < vars_.size(); ++i) {
      prob_by_level[i] = weight_of_var[static_cast<size_t>(vars_[i])];
    }
    return obdd_->WeightedModelCount(root_, prob_by_level);
  }
  // Sum out the variables from the highest bit down: after step j the
  // vector holds the probability conditioned on the low j variables.
  const int n = static_cast<int>(vars_.size());
  std::vector<double> t(size_t{1} << n);
  for (size_t r = 0; r < t.size(); ++r) {
    t[r] = static_cast<double>((table_[r / 64] >> (r % 64)) & 1);
  }
  for (int j = n - 1; j >= 0; --j) {
    const size_t half = size_t{1} << j;
    const double p = weight_of_var[static_cast<size_t>(vars_[j])];
    for (size_t r = 0; r < half; ++r) {
      t[r] = (1.0 - p) * t[r] + p * t[r + half];
    }
  }
  return t[0];
}

}  // namespace perfbench
