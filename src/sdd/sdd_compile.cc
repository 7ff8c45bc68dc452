#include "sdd/sdd_compile.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/task_pool.h"
#include "util/logging.h"

namespace ctsdd {
namespace {

// Truth table word of "index bit p is clear" (the x_p = 0 half of a
// one-word table, for p < 6).
constexpr uint64_t kIndexBitClear[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0f0f0f0f0f0f0f0fULL,
    0x00ff00ff00ff00ffULL, 0x0000ffff0000ffffULL, 0x00000000ffffffffULL,
};

// The vtree-guided semantic compiler behind CompileFuncToSdd, in two
// steps.
//
// Planning (pure BoolFunc work, no manager call): Plan(v, g) takes a
// subfunction g that depends on every variable in g.vars() (callers
// shrink first), with all of those variables below vtree node `v`. It
// descends to the minimal vtree node covering the support and returns a
// Ref: a constant, a small-scope word (the function's truth table over
// the scope of the node's small anchor, the key of the manager's
// semantic layer), or a memoized large-scope Split. A Split lists one
// (prime, sub) pair of Refs per left-scope cofactor class. Its memo keys
// on the function alone: the canonical SDD node of a function is unique
// for the vtree, and the node it is normalized at is determined by its
// support.
//
// Building (the owner): Build(ref) makes every manager call — Literal,
// LookupSemantic, the small-scope word partitions and Decision — on the
// calling thread, each Split's elements in order before its own
// Decision. That is the order of a depth-first compile, so the node ids
// do not depend on how planning was scheduled.
//
// With a parallel pool attached, Split hands its left-scope cofactor
// classes to exec::ParallelFor (one index per class) while the vtree
// recursion is shallower than kForkDepth: each class is a whole
// subfunction plan, coarse enough that the pool's index claiming is
// free, which a single apply operation is not. Planning is where the
// time goes (about 80% of a sequential ISA compile: ~17 ms of planning
// to ~4 ms of building on a 4-core host), and workers touch no manager
// state but the immutable small-anchor table, so the manager stays
// single-owner. An ISA class plans in well under a millisecond, so
// there the fork gains only 1.0-1.9x at 4 workers, depending on how
// fast the host wakes idle workers. The memo is sharded under short
// mutexes (one BoolFunc hash per probe); racing planners of one
// function keep the first Split, so every Ref names one Split per
// function. Counter tallies accumulate relaxed-atomically and merge
// into the manager at the end.
class SemanticSddCompiler {
 public:
  explicit SemanticSddCompiler(SddManager* manager)
      : m_(manager),
        vt_(manager->vtree()),
        pool_(manager->executor()),
        budget_(manager->budget()),
        scope_mask_(vt_.num_nodes(), 0) {
    for (int v = 0; v < vt_.num_nodes(); ++v) {
      if (m_->SmallAnchor(v) < 0) continue;
      const std::vector<int>& scope = AnchorVars(v);
      for (const int x : vt_.VarsBelow(v)) {
        const auto pos =
            std::lower_bound(scope.begin(), scope.end(), x) - scope.begin();
        scope_mask_[v] |= 1u << pos;
      }
    }
  }

  SddManager::NodeId Compile(const BoolFunc& f) {
    for (int v : f.vars()) {
      CTSDD_CHECK_GE(vt_.LeafOf(v), 0)
          << "vtree missing function variable x" << v;
    }
    const Ref root = Plan(vt_.root(), f.Shrink(), 0);
    // A deadline or cancel during planning leaves skipped classes behind:
    // build nothing from them.
    const NodeId result =
        m_->AbortRequested() ? SddManager::kAborted : Build(root);
    SddManager::PerfCounters* counters = m_->mutable_counters();
    counters->semantic_partitions +=
        partitions_.load(std::memory_order_relaxed);
    counters->semantic_memo_hits += memo_hits_.load(std::memory_order_relaxed);
    return result;
  }

 private:
  using NodeId = SddManager::NodeId;
  struct Split;

  // A planned SDD: a memoized large-scope Split; else, with vnode >= 0, a
  // small-scope function whose truth table over the scope of vnode's
  // small anchor is `word`; else the constant `word` (0 or 1).
  struct Ref {
    Split* split = nullptr;
    int vnode = -1;
    uint64_t word = 0;
  };
  // The partition of a large-scope function at vtree node `vnode`: one
  // (prime, sub) per left-scope cofactor class. `node` is the owner's
  // built decision, or -1 before Build reaches it.
  struct Split {
    int vnode = -1;
    std::vector<std::pair<Ref, Ref>> elements;
    NodeId node = -1;
  };

  // Fork cutoff: partition classes fork while the vtree recursion is at
  // depth < kForkDepth. Class counts are the cofactor multiplicities
  // (up to 2^|left vars|), so shallow levels alone saturate the pool.
  // The cutoff also bounds memory: a forker waiting on its join runs
  // other batches' classes on top of its own frame, so the live Plan
  // frames (each holding its classes' prime tables) grow with the fork
  // depth. On the ISA compile at 4 workers, depths 3, 4 and 8 run alike
  // (~13-14 ms) at the same ~7 MB peak RSS.
  static constexpr int kForkDepth = 4;
  static constexpr size_t kMemoShards = 16;

  static Ref Constant(bool value) { return {nullptr, -1, value ? 1u : 0u}; }

  bool Covers(int node, const std::vector<int>& vars) const {
    const std::vector<int>& below = vt_.VarsBelow(node);
    return std::includes(below.begin(), below.end(), vars.begin(),
                         vars.end());
  }

  // The minimal vtree node at or below `v` whose scope covers `vars`.
  int Descend(int v, const std::vector<int>& vars) const {
    while (!vt_.is_leaf(v)) {
      if (Covers(vt_.left(v), vars)) {
        v = vt_.left(v);
      } else if (Covers(vt_.right(v), vars)) {
        v = vt_.right(v);
      } else {
        break;
      }
    }
    return v;
  }

  // The scope of `vnode`'s small anchor (the semantic layer's word
  // scope); `vnode` must have one.
  const std::vector<int>& AnchorVars(int vnode) const {
    return vt_.VarsBelow(m_->SmallAnchor(vnode));
  }

  // The Ref of the one-word function `w` over sorted `wvars`, all below
  // the small-scope vtree node `child`.
  Ref SmallRef(int child, uint64_t w, const std::vector<int>& wvars) const {
    const uint32_t bits = 1u << wvars.size();
    const uint64_t full = (bits >= 64) ? ~0ULL : ((1ULL << bits) - 1);
    if (w == 0) return Constant(false);
    if ((w & full) == full) return Constant(true);
    return {nullptr, child, BoolFunc::ExpandWord(w, wvars, AnchorVars(child))};
  }

  // --- Planning (any thread; no manager call) ------------------------------

  Ref Plan(int v, const BoolFunc& g, int depth) {
    // Budget poll: covers the deadline/cancel paths even when this
    // subtree resolves entirely from the memo. Compile checks the trip
    // before building, so the returned Ref is never read.
    if (budget_ != nullptr && !budget_->CheckPoint()) return {};
    if (g.IsConstantFalse()) return Constant(false);
    if (g.IsConstantTrue()) return Constant(true);
    v = Descend(v, g.vars());
    // Small-scope functions are left to the owner: the manager's
    // (anchor, word) cache is their memo.
    if (m_->SmallAnchor(v) >= 0) {
      return {nullptr, v, g.WordOver(AnchorVars(v))};
    }
    MemoShard& shard = memo_[BoolFunc::Hasher{}(g) % kMemoShards];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(g);
      if (it != shard.map.end()) {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return {&it->second};
      }
    }
    Split split = Partition(v, g, depth);
    // A racing task may have planned g concurrently; both planned the
    // same partition, and the first entry wins.
    std::lock_guard<std::mutex> lock(shard.mu);
    return {&shard.map.emplace(g, std::move(split)).first->second};
  }

  // Decomposes g at internal vtree node v (g has support on both sides of
  // v): groups the left-scope cofactors into classes of equal functions
  // and emits one element per class. The class indicator functions are
  // the primes — exhaustive and pairwise disjoint by construction, with
  // distinct subs, so the partition is already compressed and Decision
  // runs zero applies. Cofactors of at most 6 right variables are single
  // words, grouped by WordClasses straight from g's table; wider ones
  // come from one BoolFunc::CofactorsOver sweep. With a pool attached,
  // the classes — independent (prime, sub) plans — fork across workers.
  Split Partition(int v, const BoolFunc& g, int depth) {
    partitions_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<int>& below_left = vt_.VarsBelow(vt_.left(v));
    std::vector<int> left_vars, right_vars;
    // Positions of the left and right variables in g's table index.
    int pos_left[BoolFunc::kMaxVars], pos_right[BoolFunc::kMaxVars];
    for (int i = 0; i < g.num_vars(); ++i) {
      const int x = g.vars()[i];
      if (std::binary_search(below_left.begin(), below_left.end(), x)) {
        pos_left[left_vars.size()] = i;
        left_vars.push_back(x);
      } else {
        pos_right[right_vars.size()] = i;
        right_vars.push_back(x);
      }
    }
    const int k = static_cast<int>(left_vars.size());
    const int mr = static_cast<int>(right_vars.size());
    CTSDD_CHECK_GE(k, 1);
    Split split;
    split.vnode = v;
    // Class c's prime as a truth table over left_vars, and its sub.
    std::vector<std::vector<uint64_t>> prime_words;
    std::vector<BoolFunc> subs;
    if (mr <= 6) {
      const WordClasses classes(g.words().data(), pos_left, k, pos_right,
                                mr);
      if (m_->SmallAnchor(vt_.left(v)) >= 0 &&
          m_->SmallAnchor(vt_.right(v)) >= 0) {
        // Both sides fit one word: the elements are small-scope words.
        for (int c = 0; c < classes.num(); ++c) {
          split.elements.emplace_back(
              SmallRef(vt_.left(v), classes.prime(c)[0], left_vars),
              SmallRef(vt_.right(v), classes.word(c), right_vars));
        }
        return split;
      }
      for (int c = 0; c < classes.num(); ++c) {
        prime_words.emplace_back(classes.prime(c),
                                 classes.prime(c) + classes.prime_words());
        subs.push_back(BoolFunc::FromWords(right_vars, {classes.word(c)}));
      }
    } else {
      std::vector<BoolFunc> cofactors = g.CofactorsOver(left_vars);
      // Group equal cofactors in order of first occurrence; build each
      // class's prime truth table over the left variables (bit a set iff
      // assignment a lands in the class). Only a new class inserts.
      std::unordered_map<BoolFunc, int, BoolFunc::Hasher> class_of;
      const size_t words = ((1u << k) + 63) / 64;
      for (uint32_t a = 0; a < (1u << k); ++a) {
        auto it = class_of.find(cofactors[a]);
        if (it == class_of.end()) {
          it = class_of.emplace(cofactors[a], static_cast<int>(subs.size()))
                   .first;
          subs.push_back(std::move(cofactors[a]));
          prime_words.emplace_back(words, 0);
        }
        prime_words[it->second][a >> 6] |= 1ULL << (a & 63);
      }
      CTSDD_CHECK_GE(subs.size(), 2u);  // g depends on some left variable
    }
    split.elements.resize(subs.size());
    const auto plan_class = [&](size_t c) {
      const Ref prime = Plan(
          vt_.left(v),
          BoolFunc::FromWords(left_vars, std::move(prime_words[c])).Shrink(),
          depth + 1);
      const Ref sub = Plan(vt_.right(v), subs[c].Shrink(), depth + 1);
      split.elements[c] = {prime, sub};
    };
    if (pool_ != nullptr && pool_->parallel() && depth < kForkDepth) {
      exec::ParallelFor(pool_, subs.size(),
                        budget_ == nullptr ? nullptr : budget_->token(),
                        plan_class);
    } else {
      for (size_t c = 0; c < subs.size(); ++c) plan_class(c);
    }
    return split;
  }

  // The cofactor classes of the function whose packed truth table is
  // `table`, with its left variables at table-index bits pos_left[0..k)
  // and its right ones at pos_right[0..mr), mr <= 6, so that each
  // cofactor is one word over the right variables. Class c's cofactor is
  // word(c); its prime is prime(c), a 2^k-bit indicator over the left
  // variables (prime_words() words; bit a set iff left assignment a lands
  // in the class). Classes come in order of first occurrence in
  // assignment order (bit j of a is the j-th left variable), the order
  // BoolFunc::CofactorsOver yields. Nothing is allocated per assignment,
  // and nothing at all when k <= 6 (at most 64 classes of one prime word
  // each, held inline).
  class WordClasses {
   public:
    WordClasses(const uint64_t* table, const int* pos_left, int k,
                const int* pos_right, int mr)
        : heap_(k > 6), prime_words_(k > 6 ? size_t{1} << (k - 6) : 1) {
      CTSDD_CHECK(k >= 1 && mr >= 1 && mr <= 6 &&
                  k + mr <= BoolFunc::kMaxVars);
      uint32_t left_mask = 0;
      for (int j = 0; j < k; ++j) left_mask |= 1u << pos_left[j];
      // Table index bits of each right assignment.
      uint32_t scat_right[64];
      scat_right[0] = 0;
      for (uint32_t x = 1; x < (1u << mr); ++x) {
        scat_right[x] =
            scat_right[x & (x - 1)] | (1u << pos_right[std::countr_zero(x)]);
      }
      // `base` holds assignment a's table index bits: the masked increment
      // steps through the subsets of left_mask in increasing order, which
      // is assignment order.
      uint32_t base = 0;
      for (uint32_t a = 0; a < (1u << k); ++a) {
        uint64_t w = 0;
        for (uint32_t b = 0; b < (1u << mr); ++b) {
          const uint32_t i = base | scat_right[b];
          w |= ((table[i >> 6] >> (i & 63)) & 1) << b;
        }
        const int c = ClassOf(w);  // may move prime_: call it first
        prime_[c * prime_words_ + (a >> 6)] |= 1ULL << (a & 63);
        base = ((base | ~left_mask) + 1) & left_mask;
      }
      CTSDD_CHECK_GE(num_, 2);
    }
    WordClasses(const WordClasses&) = delete;
    WordClasses& operator=(const WordClasses&) = delete;

    int num() const { return num_; }
    uint64_t word(int c) const { return word_[c]; }
    const uint64_t* prime(int c) const { return prime_ + c * prime_words_; }
    size_t prime_words() const { return prime_words_; }

   private:
    // Classes are found by a linear probe while they are few, and through
    // an open-addressed index of class ids beyond that (k > 6 only).
    static constexpr int kLinearClasses = 16;

    int ClassOf(uint64_t w) {
      if (index_.empty()) {
        for (int c = 0; c < num_; ++c) {
          if (word_[c] == w) return c;
        }
      } else {
        for (size_t s = Slot(w);; s = (s + 1) & (index_.size() - 1)) {
          if (index_[s] < 0) break;
          if (word_[index_[s]] == w) return index_[s];
        }
      }
      const int c = num_++;
      if (!heap_) {
        inline_word_[c] = w;
        inline_prime_[c] = 0;
        return c;
      }
      heap_word_.push_back(w);
      heap_prime_.resize(heap_prime_.size() + prime_words_, 0);
      word_ = heap_word_.data();
      prime_ = heap_prime_.data();
      if (num_ > kLinearClasses) {
        if (2 * static_cast<size_t>(num_) > index_.size()) {
          // Rebuild at load 1/4.
          index_.assign(std::bit_ceil(4 * static_cast<size_t>(num_)), -1);
          for (int i = 0; i < num_; ++i) Insert(i);
        } else {
          Insert(c);
        }
      }
      return c;
    }

    size_t Slot(uint64_t w) const {
      w ^= w >> 31;
      w *= 0xbf58476d1ce4e5b9ULL;
      w ^= w >> 29;
      return static_cast<size_t>(w) & (index_.size() - 1);
    }

    void Insert(int c) {
      size_t s = Slot(word_[c]);
      while (index_[s] >= 0) s = (s + 1) & (index_.size() - 1);
      index_[s] = c;
    }

    const bool heap_;
    const size_t prime_words_;
    int num_ = 0;
    // Not zeroed: entry c is written when class c is created, before any
    // read.
    uint64_t inline_word_[64];
    uint64_t inline_prime_[64];
    std::vector<uint64_t> heap_word_, heap_prime_;
    std::vector<int> index_;
    uint64_t* word_ = inline_word_;
    uint64_t* prime_ = inline_prime_;
  };

  // --- Building (the owning thread) ----------------------------------------

  NodeId Build(const Ref& ref) {
    if (ref.split == nullptr) {
      if (ref.vnode >= 0) return BuildSmall(ref.vnode, ref.word);
      return ref.word != 0 ? SddManager::kTrue : SddManager::kFalse;
    }
    Split& split = *ref.split;
    if (split.node >= 0) return split.node;
    SddManager::Elements elements;
    elements.reserve(split.elements.size());
    for (const auto& [prime, sub] : split.elements) {
      const NodeId p = Build(prime);
      elements.emplace_back(p, Build(sub));
    }
    split.node = m_->Decision(split.vnode, std::move(elements));
    return split.node;
  }

  // The canonical node of the small-scope function `word` (over the scope
  // of `vnode`'s small anchor): a semantic-layer hit, a literal, or a
  // word partition whose primes and subs resolve the same way. Runs on
  // words alone: positions within the anchor scope stand for variables.
  NodeId BuildSmall(int vnode, uint64_t word) {
    if (budget_ != nullptr && !budget_->CheckPoint()) {
      return SddManager::kAborted;
    }
    const NodeId hit = m_->LookupSemantic(vnode, word);
    if (hit >= 0) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
    const std::vector<int>& scope = AnchorVars(vnode);
    // Support: position p matters iff the x_p = 0 and x_p = 1 halves
    // differ (the lookup caught constants, so the support is nonempty).
    uint32_t support = 0;
    for (size_t p = 0; p < scope.size(); ++p) {
      if (((word >> (1u << p)) ^ word) & kIndexBitClear[p]) {
        support |= 1u << p;
      }
    }
    int v = vnode;
    while (!vt_.is_leaf(v)) {
      if ((support & ~scope_mask_[vt_.left(v)]) == 0) {
        v = vt_.left(v);
      } else if ((support & ~scope_mask_[vt_.right(v)]) == 0) {
        v = vt_.right(v);
      } else {
        break;
      }
    }
    if (vt_.is_leaf(v)) {
      // One relevant variable: the word is that literal.
      const int p = std::countr_zero(support);
      return m_->Literal(scope[p], /*positive=*/(word >> (1u << p)) & 1);
    }
    partitions_.fetch_add(1, std::memory_order_relaxed);
    const int left = vt_.left(v);
    const int right = vt_.right(v);
    // Both children's whole scopes: positions outside the support only
    // repeat cofactors, which land in the same classes.
    int pos_left[6], pos_right[6];
    int k = 0, mr = 0;
    for (uint32_t m = scope_mask_[left]; m != 0; m &= m - 1) {
      pos_left[k++] = std::countr_zero(m);
    }
    for (uint32_t m = scope_mask_[right]; m != 0; m &= m - 1) {
      pos_right[mr++] = std::countr_zero(m);
    }
    const WordClasses classes(&word, pos_left, k, pos_right, mr);
    SddManager::Elements elements;
    elements.reserve(classes.num());
    for (int c = 0; c < classes.num(); ++c) {
      const NodeId prime =
          Build(SmallRef(left, classes.prime(c)[0], vt_.VarsBelow(left)));
      const NodeId sub =
          Build(SmallRef(right, classes.word(c), vt_.VarsBelow(right)));
      elements.emplace_back(prime, sub);
    }
    return m_->Decision(v, std::move(elements));
  }

  struct MemoShard {
    std::mutex mu;
    std::unordered_map<BoolFunc, Split, BoolFunc::Hasher> map;
  };

  SddManager* m_;
  const Vtree& vt_;
  exec::TaskPool* pool_;
  WorkBudget* budget_;
  // Positions of each small-scope vtree node's variables within its small
  // anchor's scope, as a bit mask (0 for large-scope nodes).
  std::vector<uint32_t> scope_mask_;
  std::array<MemoShard, kMemoShards> memo_;
  std::atomic<uint64_t> partitions_{0};
  std::atomic<uint64_t> memo_hits_{0};
};

}  // namespace

SddManager::NodeId CompileCircuitToSdd(SddManager* manager,
                                       const Circuit& circuit) {
  CTSDD_CHECK_GE(circuit.output(), 0);
  // Semantic fast path: for small variable counts the word-parallel
  // circuit sweep plus the vtree-guided partition recursion replace
  // thousands of small applies.
  if (static_cast<int>(circuit.Vars().size()) <= kSemanticCircuitMaxVars) {
    return CompileFuncToSdd(
        manager, BoolFunc::FromCircuitOver(circuit, circuit.Vars()));
  }
  // The apply route runs sequentially even with a pool attached: each
  // gate's fold is too fine-grained for forking to pay.
  std::vector<SddManager::NodeId> value(circuit.num_gates());
  for (int id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    switch (g.kind) {
      case GateKind::kConstFalse:
        value[id] = manager->False();
        break;
      case GateKind::kConstTrue:
        value[id] = manager->True();
        break;
      case GateKind::kVar:
        value[id] = manager->Literal(g.var, true);
        break;
      case GateKind::kNot:
        value[id] = manager->Not(value[g.inputs[0]]);
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        std::vector<SddManager::NodeId> inputs;
        inputs.reserve(g.inputs.size());
        for (int input : g.inputs) inputs.push_back(value[input]);
        // No sort: SddManager::AndN/OrN schedule wide gates themselves,
        // folding them bottom-up along the vtree (each operand joins at
        // the node it is normalized at, in circuit order within a node).
        value[id] = g.kind == GateKind::kAnd
                        ? manager->AndN(std::move(inputs))
                        : manager->OrN(std::move(inputs));
        break;
      }
    }
  }
  return value[circuit.output()];
}

SddManager::NodeId CompileFuncToSdd(SddManager* manager, const BoolFunc& f) {
  return SemanticSddCompiler(manager).Compile(f);
}

SddStats ComputeSddStats(const SddManager& manager, SddManager::NodeId root) {
  SddStats stats;
  stats.size = manager.Size(root);
  stats.width = manager.Width(root);
  stats.decisions = manager.NumDecisions(root);
  return stats;
}

}  // namespace ctsdd
