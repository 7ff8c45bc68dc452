#include "util/wmc_tape.h"

#include "util/logging.h"

namespace ctsdd {

void WmcTape::Finish(uint32_t root) {
  CTSDD_CHECK_LT(root, FirstDecision() + ends_.size()) << "root out of range";
  root_ = root;
  ends_.shrink_to_fit();
  elems_.shrink_to_fit();
}

double WmcTape::Evaluate(std::span<const double> probs,
                         std::vector<double>* values) const {
  CTSDD_CHECK_EQ(probs.size(), static_cast<size_t>(num_slots_));
  values->resize(FirstDecision() + ends_.size());
  double* v = values->data();
  v[kFalseEntry] = 0.0;
  v[kTrueEntry] = 1.0;
  for (uint32_t s = 0; s < num_slots_; ++s) {
    v[LiteralEntry(s, false)] = 1.0 - probs[s];
    v[LiteralEntry(s, true)] = probs[s];
  }
  double* out = v + FirstDecision();
  const Element* e = elems_.data();
  size_t k = 0;
  for (size_t d = 0; d < ends_.size(); ++d) {
    double sum = 0.0;
    for (const size_t end = ends_[d]; k < end; ++k) {
      sum += v[e[k].prime] * v[e[k].sub];
    }
    out[d] = sum;
  }
  return v[root_];
}

}  // namespace ctsdd
