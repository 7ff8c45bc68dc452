// A weighted model count compiled to straight-line code.
//
// Both decision-diagram routes compute a probability the same way: a
// literal is worth p or 1 - p, and a decision node is worth the sum over
// its (prime, sub) elements of value(prime) * value(sub) (Section 1: the
// second stage of query compilation, linear in the diagram). A WmcTape
// fixes that computation once per diagram: every reachable decision gets
// a dense entry index in topological order (children before parents),
// and its elements are stored as pairs of entry indices. Evaluating the
// tape under a weight vector is one forward loop over flat arrays, with
// no hashing, recursion or pointer chasing into the manager.
//
// Entry layout: 0 is false, 1 is true, 2 + 2*slot + positive is the
// literal of weight slot `slot`, and decisions follow in tape order. An
// OBDD node (level, lo, hi) is the two-element decision
// {(!x_level, lo), (x_level, hi)} over its level's literal entries, so
// one kernel serves both routes (ObddManager::BuildWmcTape,
// SddManager::BuildWmcTape).
//
// A tape is immutable once built and owns no manager state, so it stays
// valid after the manager collects, shrinks or is destroyed.

#ifndef CTSDD_UTIL_WMC_TAPE_H_
#define CTSDD_UTIL_WMC_TAPE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ctsdd {

class WmcTape {
 public:
  static constexpr uint32_t kFalseEntry = 0;
  static constexpr uint32_t kTrueEntry = 1;
  static uint32_t LiteralEntry(uint32_t slot, bool positive) {
    return 2 + 2 * slot + (positive ? 1 : 0);
  }

  // The tape of a constant function (no weight slots).
  static WmcTape Constant(bool value) {
    WmcTape tape(0);
    tape.Finish(value ? kTrueEntry : kFalseEntry);
    return tape;
  }

  WmcTape() = default;
  // An empty tape over `num_slots` weight slots; append decisions with
  // AddElement/CloseDecision, then Finish.
  explicit WmcTape(uint32_t num_slots) : num_slots_(num_slots) {}

  // Appends one (prime, sub) element to the decision being built. Both
  // entries must already exist (a leaf or a closed decision).
  void AddElement(uint32_t prime, uint32_t sub) {
    elems_.push_back({prime, sub});
  }
  // Closes the decision holding the elements added since the last close
  // and returns its entry index.
  uint32_t CloseDecision() {
    ends_.push_back(static_cast<uint32_t>(elems_.size()));
    return FirstDecision() + static_cast<uint32_t>(ends_.size()) - 1;
  }
  // Sets the entry whose value Evaluate returns and releases the build
  // slack.
  void Finish(uint32_t root);

  // The probability of the root when the variable of slot i is
  // independently true with probability probs[i]. `values` is scratch
  // (resized to one double per entry) so a caller evaluating repeatedly
  // pays no allocation.
  double Evaluate(std::span<const double> probs,
                  std::vector<double>* values) const;

  size_t num_decisions() const { return ends_.size(); }
  // Heap bytes owned by the tape.
  size_t MemoryBytes() const {
    return ends_.capacity() * sizeof(uint32_t) +
           elems_.capacity() * sizeof(Element);
  }

 private:
  struct Element {
    uint32_t prime;
    uint32_t sub;
  };
  uint32_t FirstDecision() const { return 2 + 2 * num_slots_; }

  uint32_t num_slots_ = 0;
  uint32_t root_ = kFalseEntry;
  // ends_[d] is one past decision d's last element in elems_.
  std::vector<uint32_t> ends_;
  std::vector<Element> elems_;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_WMC_TAPE_H_
