#include "func/bool_func.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "circuit/eval.h"
#include "util/logging.h"

namespace ctsdd {
namespace {

void CheckVarsSortedUnique(const std::vector<int>& vars) {
  CTSDD_CHECK_LE(static_cast<int>(vars.size()), BoolFunc::kMaxVars)
      << "BoolFunc limited to " << BoolFunc::kMaxVars << " variables";
  for (size_t i = 0; i < vars.size(); ++i) {
    CTSDD_CHECK_GE(vars[i], 0);
    if (i > 0) CTSDD_CHECK_LT(vars[i - 1], vars[i]) << "vars must be sorted";
  }
}

// Bit masks selecting table indices whose bit `pos` is 0, for pos < 6 —
// the in-word half of the word-parallel kernels below.
constexpr uint64_t kLowHalfMask[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0f0f0f0f0f0f0f0fULL,
    0x00ff00ff00ff00ffULL, 0x0000ffff0000ffffULL, 0x00000000ffffffffULL,
};

// Duplicates each `g`-bit group of the low `count_bits` of `in` (the
// word-level "insert a variable at position log2(g)" primitive). Requires
// count_bits <= 32, so the result fits one word.
uint64_t DoubleGroups(uint64_t in, int g, int count_bits) {
  uint64_t out = 0;
  const uint64_t mask = (1ULL << g) - 1;
  for (int i = 0; i * g < count_bits; ++i) {
    const uint64_t group = (in >> (i * g)) & mask;
    out |= (group << (2 * i * g)) | (group << (2 * i * g + g));
  }
  return out;
}

// Keeps every second `g`-bit group of `in` (stride 2g), packing them
// contiguously: the word-level "remove a variable at position log2(g)"
// primitive. Produces out_bits <= 32 result bits.
uint64_t GatherGroups(uint64_t in, int g, int out_bits) {
  uint64_t out = 0;
  const uint64_t mask = (1ULL << g) - 1;
  for (int i = 0; i * g < out_bits; ++i) {
    out |= ((in >> (2 * i * g)) & mask) << (i * g);
  }
  return out;
}

}  // namespace

BoolFunc::BoolFunc() : BoolFunc({}, std::vector<uint64_t>(1, 0)) {}

BoolFunc::BoolFunc(std::vector<int> vars, std::vector<uint64_t> words)
    : vars_(std::move(vars)), words_(std::move(words)) {
  CheckVarsSortedUnique(vars_);
  CTSDD_CHECK_EQ(words_.size(), NumWords());
  MaskTail();
}

void BoolFunc::MaskTail() {
  const uint32_t bits = table_size();
  if (bits % 64 != 0) {
    words_.back() &= (1ULL << (bits % 64)) - 1;
  }
}

BoolFunc BoolFunc::Constant(bool value) {
  return BoolFunc({}, std::vector<uint64_t>(1, value ? 1 : 0));
}

BoolFunc BoolFunc::ConstantOver(std::vector<int> vars, bool value) {
  std::sort(vars.begin(), vars.end());
  CheckVarsSortedUnique(vars);
  const size_t words = ((1u << vars.size()) + 63) / 64;
  return BoolFunc(std::move(vars),
                  std::vector<uint64_t>(words, value ? ~0ULL : 0ULL));
}

BoolFunc BoolFunc::Literal(int var, bool positive) {
  // Over {var}: table bit 0 = F(0), bit 1 = F(1).
  const uint64_t table = positive ? 0b10 : 0b01;
  return BoolFunc({var}, std::vector<uint64_t>(1, table));
}

BoolFunc BoolFunc::FromTable(std::vector<int> vars,
                             const std::vector<bool>& table) {
  std::sort(vars.begin(), vars.end());
  CheckVarsSortedUnique(vars);
  CTSDD_CHECK_EQ(table.size(), 1u << vars.size());
  std::vector<uint64_t> words((table.size() + 63) / 64, 0);
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i]) words[i / 64] |= (1ULL << (i % 64));
  }
  return BoolFunc(std::move(vars), std::move(words));
}

BoolFunc BoolFunc::FromCircuit(const Circuit& circuit) {
  return FromCircuitOver(circuit, circuit.Vars());
}

BoolFunc BoolFunc::FromCircuitOver(const Circuit& circuit,
                                   std::vector<int> vars) {
  std::sort(vars.begin(), vars.end());
  CheckVarsSortedUnique(vars);
  // Every circuit variable must be covered.
  for (int v : circuit.Vars()) {
    CTSDD_CHECK(std::binary_search(vars.begin(), vars.end(), v))
        << "circuit variable x" << v << " missing from BoolFunc var set";
  }
  const int n = static_cast<int>(vars.size());
  // Word-parallel sweep: one pass evaluates the circuit on 64 assignments
  // at once, each gate computed as a bitwise op on 64 lanes. Lane i of
  // word w is table index w*64 + i; a variable at position p < 6 reads an
  // alternating in-word pattern, a variable at position p >= 6 is constant
  // across the word (bit p of the word's base index).
  const int max_var = circuit.num_vars();
  std::vector<int> pos_of_var(std::max(max_var, vars.empty() ? 0
                                                             : vars.back() + 1),
                              -1);
  for (int i = 0; i < n; ++i) pos_of_var[vars[i]] = i;
  const size_t num_words = ((1u << n) + 63) / 64;
  std::vector<uint64_t> words(num_words, 0);
  std::vector<uint64_t> lanes(circuit.num_gates());
  for (size_t w = 0; w < num_words; ++w) {
    const uint64_t base = static_cast<uint64_t>(w) * 64;
    for (int id = 0; id < circuit.num_gates(); ++id) {
      const Gate& g = circuit.gate(id);
      uint64_t v = 0;
      switch (g.kind) {
        case GateKind::kConstFalse:
          v = 0;
          break;
        case GateKind::kConstTrue:
          v = ~0ULL;
          break;
        case GateKind::kVar: {
          // A variable outside `vars` labels a gate the output does not
          // reach (GateFunc sweeps a whole circuit for one gate); its lane
          // is never read.
          const int p = pos_of_var[g.var];
          if (p < 0) {
            v = 0;
          } else if (p < 6) {
            v = ~kLowHalfMask[p];  // bit pattern of position p inside a word
          } else {
            v = ((base >> p) & 1) ? ~0ULL : 0;
          }
          break;
        }
        case GateKind::kNot:
          v = ~lanes[g.inputs[0]];
          break;
        case GateKind::kAnd:
          v = ~0ULL;
          for (int input : g.inputs) v &= lanes[input];
          break;
        case GateKind::kOr:
          v = 0;
          for (int input : g.inputs) v |= lanes[input];
          break;
      }
      lanes[id] = v;
    }
    words[w] = lanes[circuit.output()];
  }
  return BoolFunc(std::move(vars), std::move(words));
}

BoolFunc BoolFunc::FromWords(std::vector<int> vars,
                             std::vector<uint64_t> words) {
  return BoolFunc(std::move(vars), std::move(words));
}

BoolFunc BoolFunc::Random(std::vector<int> vars, Rng* rng) {
  std::sort(vars.begin(), vars.end());
  CheckVarsSortedUnique(vars);
  std::vector<uint64_t> words(((1u << vars.size()) + 63) / 64);
  for (auto& w : words) w = rng->Next64();
  return BoolFunc(std::move(vars), std::move(words));
}

bool BoolFunc::EvalIndex(uint32_t index) const {
  CTSDD_CHECK_LT(index, table_size());
  return (words_[index / 64] >> (index % 64)) & 1;
}

bool BoolFunc::Eval(const std::vector<bool>& values) const {
  CTSDD_CHECK_EQ(values.size(), vars_.size());
  uint32_t index = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i]) index |= (1u << i);
  }
  return EvalIndex(index);
}

bool BoolFunc::DependsOnPosition(int position) const {
  CTSDD_CHECK_GE(position, 0);
  CTSDD_CHECK_LT(position, num_vars());
  if (position < 6) {
    // Compare the two in-word halves of every g-bit group pair.
    const int g = 1 << position;
    const uint64_t mask = kLowHalfMask[position];
    for (const uint64_t w : words_) {
      if (((w ^ (w >> g)) & mask) != 0) return true;
    }
    return false;
  }
  // Whole-word blocks: block 2j (bit = 0) vs block 2j+1 (bit = 1).
  const size_t block = 1u << (position - 6);
  for (size_t b = 0; b + 2 * block <= words_.size(); b += 2 * block) {
    for (size_t i = 0; i < block; ++i) {
      if (words_[b + i] != words_[b + block + i]) return true;
    }
  }
  return false;
}

uint64_t BoolFunc::WordOver(const std::vector<int>& superset) const {
  CTSDD_CHECK_LE(num_vars(), 6);
  return ExpandWord(words_[0], vars_, superset);
}

uint64_t BoolFunc::ExpandWord(uint64_t w, const std::vector<int>& from,
                              const std::vector<int>& to) {
  CTSDD_CHECK_LE(to.size(), 6u);
  uint32_t size = 1u << from.size();
  size_t j = 0;
  for (size_t i = 0; i < to.size(); ++i) {
    if (j < from.size() && from[j] == to[i]) {
      ++j;
      continue;
    }
    // Insert an irrelevant variable at position i (duplicate 2^i-groups).
    w = DoubleGroups(w, 1 << i, size);
    size <<= 1;
  }
  CTSDD_CHECK_EQ(j, from.size()) << "ExpandWord: not a variable superset";
  return w;
}

uint64_t BoolFunc::CountModels() const {
  uint64_t count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  return count;
}

bool BoolFunc::IsConstantFalse() const {
  for (const uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool BoolFunc::IsConstantTrue() const {
  const uint32_t bits = table_size();
  if (bits < 64) return words_[0] == (1ULL << bits) - 1;
  for (const uint64_t w : words_) {
    if (w != ~0ULL) return false;
  }
  return true;
}

int64_t BoolFunc::AnyModelIndex() const {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<int64_t>(w) * 64 + std::countr_zero(words_[w]);
    }
  }
  return -1;
}

std::vector<uint64_t> BoolFunc::RestrictWords(const std::vector<uint64_t>& in,
                                              int num_vars, int pos,
                                              bool value) {
  const uint32_t new_size = (1u << num_vars) >> 1;
  std::vector<uint64_t> words((new_size + 63) / 64, 0);
  if (pos >= 6) {
    // Whole-word blocks: keep the block with bit `pos` == value.
    const size_t block = 1u << (pos - 6);
    const size_t offset = value ? block : 0;
    for (size_t j = 0; j < words.size(); j += block) {
      const size_t src = 2 * j + offset;
      for (size_t i = 0; i < block; ++i) words[j + i] = in[src + i];
    }
  } else {
    const int g = 1 << pos;
    if (new_size <= 32) {
      words[0] = GatherGroups(in[0] >> (value ? g : 0), g, new_size);
    } else {
      // Each output word packs 32 gathered bits from each of two inputs.
      for (size_t j = 0; j < words.size(); ++j) {
        const uint64_t lo = GatherGroups(in[2 * j] >> (value ? g : 0), g, 32);
        const uint64_t hi =
            GatherGroups(in[2 * j + 1] >> (value ? g : 0), g, 32);
        words[j] = lo | (hi << 32);
      }
    }
  }
  return words;
}

BoolFunc BoolFunc::Restrict(int var, bool value) const {
  const auto it = std::lower_bound(vars_.begin(), vars_.end(), var);
  CTSDD_CHECK(it != vars_.end() && *it == var)
      << "Restrict: variable not present";
  const int pos = static_cast<int>(it - vars_.begin());
  std::vector<int> new_vars = vars_;
  new_vars.erase(new_vars.begin() + pos);
  return BoolFunc(std::move(new_vars),
                  RestrictWords(words_, num_vars(), pos, value));
}

std::vector<BoolFunc> BoolFunc::CofactorsOver(
    const std::vector<int>& on_vars) const {
  // Positions of on_vars within vars_ (both sorted).
  std::vector<int> positions;
  positions.reserve(on_vars.size());
  {
    size_t j = 0;
    for (size_t i = 0; i < on_vars.size(); ++i) {
      if (i > 0) CTSDD_CHECK_LT(on_vars[i - 1], on_vars[i]);
      while (j < vars_.size() && vars_[j] < on_vars[i]) ++j;
      CTSDD_CHECK(j < vars_.size() && vars_[j] == on_vars[i])
          << "CofactorsOver: variable x" << on_vars[i] << " not present";
      positions.push_back(static_cast<int>(j));
    }
  }
  std::vector<int> rest;
  rest.reserve(vars_.size() - on_vars.size());
  for (int v : vars_) {
    if (!std::binary_search(on_vars.begin(), on_vars.end(), v)) {
      rest.push_back(v);
    }
  }
  // Restriction halving, highest position first so lower positions stay
  // valid: after processing positions p_{k-1}, ..., p_j the table at index
  // i holds the cofactor whose low bit is the value of the j-th variable
  // (new bits are appended low), so the final order is assignment order.
  std::vector<std::vector<uint64_t>> tables;
  tables.reserve(1u << on_vars.size());
  tables.push_back(words_);
  int cur_vars = num_vars();
  for (int j = static_cast<int>(positions.size()) - 1; j >= 0; --j) {
    std::vector<std::vector<uint64_t>> next;
    next.reserve(tables.size() * 2);
    for (const auto& t : tables) {
      next.push_back(RestrictWords(t, cur_vars, positions[j], false));
      next.push_back(RestrictWords(t, cur_vars, positions[j], true));
    }
    tables = std::move(next);
    --cur_vars;
  }
  std::vector<BoolFunc> out;
  out.reserve(tables.size());
  for (auto& t : tables) out.push_back(BoolFunc(rest, std::move(t)));
  return out;
}

BoolFunc BoolFunc::ExpandTo(const std::vector<int>& new_vars) const {
  std::vector<int> sorted = new_vars;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  CheckVarsSortedUnique(sorted);
  CTSDD_CHECK(std::includes(sorted.begin(), sorted.end(), vars_.begin(),
                            vars_.end()))
      << "ExpandTo target must be a superset";
  if (sorted == vars_) return *this;
  // Insert the missing variables one at a time in increasing target
  // position; each insertion duplicates g-bit groups (word-parallel).
  std::vector<uint64_t> words = words_;
  uint32_t size = table_size();
  for (size_t i = 0, j = 0; i < sorted.size(); ++i) {
    if (j < vars_.size() && vars_[j] == sorted[i]) {
      ++j;
      continue;
    }
    const int pos = static_cast<int>(i);
    const uint32_t new_size = size * 2;
    std::vector<uint64_t> out((new_size + 63) / 64, 0);
    if (pos >= 6) {
      // Duplicate whole-word blocks of 2^(pos-6) words.
      const size_t block = 1u << (pos - 6);
      for (size_t src = 0, dst = 0; src < (size + 63) / 64; src += block) {
        for (size_t k = 0; k < block; ++k) out[dst + k] = words[src + k];
        dst += block;
        for (size_t k = 0; k < block; ++k) out[dst + k] = words[src + k];
        dst += block;
      }
    } else {
      const int g = 1 << pos;
      if (size <= 32) {
        out[0] = DoubleGroups(words[0], g, size);
      } else {
        for (size_t src = 0; src < size / 64; ++src) {
          out[2 * src] = DoubleGroups(words[src] & 0xffffffffULL, g, 32);
          out[2 * src + 1] = DoubleGroups(words[src] >> 32, g, 32);
        }
      }
    }
    words = std::move(out);
    size = new_size;
  }
  return BoolFunc(std::move(sorted), std::move(words));
}

BoolFunc BoolFunc::Shrink() const {
  // One dependence scan suffices: dropping an irrelevant variable does not
  // change which other variables are relevant. Restrict highest positions
  // first so the remaining positions stay valid.
  std::vector<int> drop;
  for (int pos = 0; pos < num_vars(); ++pos) {
    if (!DependsOnPosition(pos)) drop.push_back(pos);
  }
  if (drop.empty()) return *this;
  std::vector<int> new_vars;
  new_vars.reserve(vars_.size() - drop.size());
  for (int pos = 0; pos < num_vars(); ++pos) {
    if (!std::binary_search(drop.begin(), drop.end(), pos)) {
      new_vars.push_back(vars_[pos]);
    }
  }
  std::vector<uint64_t> words = words_;
  int cur_vars = num_vars();
  for (auto it = drop.rbegin(); it != drop.rend(); ++it) {
    words = RestrictWords(words, cur_vars, *it, false);
    --cur_vars;
  }
  return BoolFunc(std::move(new_vars), std::move(words));
}

BoolFunc BoolFunc::operator~() const {
  BoolFunc out = *this;
  for (auto& w : out.words_) w = ~w;
  out.MaskTail();
  return out;
}

BoolFunc BoolFunc::CombineWords(const BoolFunc& a, const BoolFunc& b,
                                uint64_t (*op)(uint64_t, uint64_t)) {
  std::vector<int> all = a.vars();
  all.insert(all.end(), b.vars().begin(), b.vars().end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  BoolFunc ea = a.ExpandTo(all);
  const BoolFunc eb = b.ExpandTo(all);
  for (size_t i = 0; i < ea.words_.size(); ++i) {
    ea.words_[i] = op(ea.words_[i], eb.words_[i]);
  }
  ea.MaskTail();
  return ea;
}

BoolFunc operator&(const BoolFunc& a, const BoolFunc& b) {
  return BoolFunc::CombineWords(
      a, b, [](uint64_t x, uint64_t y) { return x & y; });
}

BoolFunc operator|(const BoolFunc& a, const BoolFunc& b) {
  return BoolFunc::CombineWords(
      a, b, [](uint64_t x, uint64_t y) { return x | y; });
}

BoolFunc operator^(const BoolFunc& a, const BoolFunc& b) {
  return BoolFunc::CombineWords(
      a, b, [](uint64_t x, uint64_t y) { return x ^ y; });
}

bool operator==(const BoolFunc& a, const BoolFunc& b) {
  return a.vars_ == b.vars_ && a.words_ == b.words_;
}

uint64_t BoolFunc::Hash() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL + vars_.size();
  for (int v : vars_) {
    h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  for (uint64_t w : words_) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::string BoolFunc::DebugString() const {
  std::ostringstream os;
  os << "BoolFunc(vars={";
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (i) os << ",";
    os << "x" << vars_[i];
  }
  os << "}, table=";
  for (uint32_t i = 0; i < table_size() && i < 64; ++i) {
    os << (EvalIndex(i) ? '1' : '0');
  }
  if (table_size() > 64) os << "...";
  os << ")";
  return os.str();
}

}  // namespace ctsdd
