// Semantic Boolean functions as explicit truth tables.
//
// A BoolFunc is a function F : {0,1}^X -> {0,1} over an explicit, sorted
// set X of global variable ids. The truth table is a bitset with one bit
// per assignment; bit i of a table index gives the value of the i-th
// variable of X (in sorted order). Exact semantic operations (equality,
// restriction, cofactors, model counting) are all O(2^|X|), which is the
// intended regime: the paper's factor-based constructions (Section 3) are
// defined semantically, and this class is their executable model for
// functions of up to kMaxVars variables.

#ifndef CTSDD_FUNC_BOOL_FUNC_H_
#define CTSDD_FUNC_BOOL_FUNC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "util/random.h"
#include "util/status.h"

namespace ctsdd {

class BoolFunc {
 public:
  static constexpr int kMaxVars = 26;

  // The constant-false function over the empty variable set.
  BoolFunc();

  // --- Factories ---
  static BoolFunc Constant(bool value);  // over the empty variable set
  static BoolFunc ConstantOver(std::vector<int> vars, bool value);
  static BoolFunc Literal(int var, bool positive);
  // Truth table given explicitly: `table[i]` is F at index i.
  static BoolFunc FromTable(std::vector<int> vars,
                            const std::vector<bool>& table);
  // Semantics of a circuit, over exactly the variables appearing in it.
  static BoolFunc FromCircuit(const Circuit& circuit);
  // Semantics of a circuit over a caller-chosen variable superset.
  static BoolFunc FromCircuitOver(const Circuit& circuit,
                                  std::vector<int> vars);
  // Truth table given as packed 64-bit words (bit i of word w is F at
  // index w*64 + i); `vars` must be sorted and unique.
  static BoolFunc FromWords(std::vector<int> vars,
                            std::vector<uint64_t> words);
  // Uniformly random function over the given variables.
  static BoolFunc Random(std::vector<int> vars, Rng* rng);

  // --- Accessors ---
  int num_vars() const { return static_cast<int>(vars_.size()); }
  const std::vector<int>& vars() const { return vars_; }
  uint32_t table_size() const { return 1u << num_vars(); }
  // The packed truth table (the FromWords layout): bit i of word w is F at
  // index w*64 + i; bits past table_size() are zero.
  const std::vector<uint64_t>& words() const { return words_; }
  bool EvalIndex(uint32_t index) const;
  // Evaluates under values for this function's variables, where
  // `values[i]` is the value of global variable vars()[i].
  bool Eval(const std::vector<bool>& values) const;
  // True if the function ignores its i-th variable.
  bool DependsOnPosition(int position) const;

  // The truth table as one word over a sorted variable superset of size
  // <= 6 (missing variables become irrelevant positions). The small-scope
  // interchange format with SddManager's semantic layer.
  uint64_t WordOver(const std::vector<int>& superset) const;
  // Word-level ExpandTo: re-expresses the one-word truth table `w` over
  // sorted variable set `from` (|from| <= 6) as a table over the sorted
  // superset `to` (|to| <= 6).
  static uint64_t ExpandWord(uint64_t w, const std::vector<int>& from,
                             const std::vector<int>& to);

  uint64_t CountModels() const;
  bool IsConstantFalse() const;
  bool IsConstantTrue() const;
  // Index of some model, or -1 if unsatisfiable.
  int64_t AnyModelIndex() const;

  // --- Operations ---
  // Restriction by assigning global variable `var` (must be present);
  // the result is over vars() minus {var}.
  BoolFunc Restrict(int var, bool value) const;
  // All 2^k cofactors with respect to the k listed variables (each must be
  // present; `on_vars` must be sorted and unique), in assignment order:
  // entry `a` is the cofactor under the assignment whose bit j is the
  // value of the j-th listed variable, over vars() minus on_vars. One call
  // yields every cofactor via word-parallel restriction halving, instead
  // of 2^k independent Restrict chains. The vtree-guided SDD compiler
  // calls it only when the cofactors are wider than one word; narrower
  // ones it reads straight from words().
  std::vector<BoolFunc> CofactorsOver(const std::vector<int>& on_vars) const;
  // Re-expresses the function over a variable superset (new variables are
  // irrelevant to the output).
  BoolFunc ExpandTo(const std::vector<int>& new_vars) const;
  // Drops variables the function does not depend on.
  BoolFunc Shrink() const;

  BoolFunc operator~() const;
  // Binary connectives align the two operands over the union of their
  // variable sets.
  friend BoolFunc operator&(const BoolFunc& a, const BoolFunc& b);
  friend BoolFunc operator|(const BoolFunc& a, const BoolFunc& b);
  friend BoolFunc operator^(const BoolFunc& a, const BoolFunc& b);

  // Structural equality: same variable set and same table. (Semantic
  // equivalence over different variable sets can be tested after ExpandTo.)
  friend bool operator==(const BoolFunc& a, const BoolFunc& b);

  // For use as hash-map keys.
  uint64_t Hash() const;

  std::string DebugString() const;

  struct Hasher {
    size_t operator()(const BoolFunc& f) const {
      return static_cast<size_t>(f.Hash());
    }
  };

 private:
  BoolFunc(std::vector<int> vars, std::vector<uint64_t> words);

  // Aligns both operands over the union of their variable sets and applies
  // `op` to the truth tables one 64-entry word at a time.
  static BoolFunc CombineWords(const BoolFunc& a, const BoolFunc& b,
                               uint64_t (*op)(uint64_t, uint64_t));

  // Core of Restrict on a raw table: drops position `pos` of a
  // `num_vars`-variable table, keeping the half where that variable is
  // `value`. Shared by Restrict and CofactorsOver.
  static std::vector<uint64_t> RestrictWords(const std::vector<uint64_t>& in,
                                             int num_vars, int pos,
                                             bool value);

  size_t NumWords() const { return (table_size() + 63) / 64; }
  void MaskTail();

  std::vector<int> vars_;       // sorted global variable ids
  std::vector<uint64_t> words_;  // truth table bits
};

}  // namespace ctsdd

#endif  // CTSDD_FUNC_BOOL_FUNC_H_
