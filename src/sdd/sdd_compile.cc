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
// free (the ISA compile runs ~3x faster at 4 workers), which a single
// apply operation is not. Planning is where the time goes (about
// 97% of a sequential ISA compile), and workers touch no manager state
// but the immutable small-anchor table, so the manager stays
// single-owner. The memo is sharded under short mutexes (one BoolFunc
// hash per probe); racing planners of one function keep the first
// Split, so every Ref names one Split per function. Counter tallies
// accumulate relaxed-atomically and merge into the manager at the end.
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
  // frames (each holding its cofactor table) grow with the fork depth.
  // On the ISA compile, depth 4 keeps ~38 frames live (~50 MB peak RSS
  // at 4 workers, vs ~370 frames and ~200 MB at depth 8) at the same
  // speed; depth 3 is slower.
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
  // v): enumerates all left-scope cofactors in one word-parallel sweep,
  // groups equal ones, and emits one element per distinct cofactor. The
  // group indicator functions are the primes — exhaustive and pairwise
  // disjoint by construction, with distinct subs, so the partition is
  // already compressed and Decision runs zero applies. With a pool
  // attached, the classes — independent (prime, sub) plans — fork across
  // workers.
  Split Partition(int v, const BoolFunc& g, int depth) {
    partitions_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<int>& below_left = vt_.VarsBelow(vt_.left(v));
    std::vector<int> left_vars;
    for (int x : g.vars()) {
      if (std::binary_search(below_left.begin(), below_left.end(), x)) {
        left_vars.push_back(x);
      }
    }
    const int k = static_cast<int>(left_vars.size());
    CTSDD_CHECK_GE(k, 1);
    Split split;
    split.vnode = v;
    if (m_->SmallAnchor(vt_.left(v)) >= 0 &&
        m_->SmallAnchor(vt_.right(v)) >= 0) {
      // Both sides fit one word: the classes come from plain word ops.
      std::vector<int> right_vars;
      int pos_left[6], pos_right[6];  // positions in g's table index
      for (int i = 0, li = 0; i < g.num_vars(); ++i) {
        if (li < k && g.vars()[i] == left_vars[li]) {
          pos_left[li++] = i;
        } else {
          pos_right[right_vars.size()] = i;
          right_vars.push_back(g.vars()[i]);
        }
      }
      const WordClasses classes(
          pos_left, k, pos_right, static_cast<int>(right_vars.size()),
          [&](uint32_t index) { return g.EvalIndex(index); });
      for (int c = 0; c < classes.num; ++c) {
        split.elements.emplace_back(
            SmallRef(vt_.left(v), classes.prime_word[c], left_vars),
            SmallRef(vt_.right(v), classes.class_word[c], right_vars));
      }
      return split;
    }
    const std::vector<BoolFunc> cofactors = g.CofactorsOver(left_vars);
    // Group equal cofactors; build each class's prime truth table over
    // the left variables (bit a set iff assignment a lands in the class).
    std::unordered_map<BoolFunc, int, BoolFunc::Hasher> class_of;
    std::vector<const BoolFunc*> reps;  // stable: map references persist
    std::vector<std::vector<uint64_t>> prime_words;
    const size_t words = ((1u << k) + 63) / 64;
    for (uint32_t a = 0; a < (1u << k); ++a) {
      const auto [slot, inserted] =
          class_of.emplace(cofactors[a], static_cast<int>(reps.size()));
      if (inserted) {
        reps.push_back(&slot->first);
        prime_words.emplace_back(words, 0);
      }
      prime_words[slot->second][a >> 6] |= 1ULL << (a & 63);
    }
    CTSDD_CHECK_GE(reps.size(), 2u);  // g depends on some left variable
    split.elements.resize(reps.size());
    const auto plan_class = [&](size_t c) {
      const Ref prime = Plan(
          vt_.left(v),
          BoolFunc::FromWords(left_vars, std::move(prime_words[c])).Shrink(),
          depth + 1);
      const Ref sub = Plan(vt_.right(v), reps[c]->Shrink(), depth + 1);
      split.elements[c] = {prime, sub};
    };
    if (pool_ != nullptr && pool_->parallel() && depth < kForkDepth) {
      exec::ParallelFor(pool_, reps.size(),
                        budget_ == nullptr ? nullptr : budget_->token(),
                        plan_class);
    } else {
      for (size_t c = 0; c < reps.size(); ++c) plan_class(c);
    }
    return split;
  }

  // The cofactor classes of a function of at most 12 variables whose
  // left and right variables sit at table-index bits pos_left[0..k) and
  // pos_right[0..mr) (each side at most 6), read through `bit(index)`:
  // enumeration, grouping and the prime indicators all run on plain
  // 64-bit words with no BoolFunc allocations. Class c's cofactor is
  // class_word[c] over the right variables, its prime prime_word[c] over
  // the left ones, in order of first occurrence.
  struct WordClasses {
    uint64_t class_word[64];
    uint64_t prime_word[64];
    int num = 0;

    template <typename Bit>
    WordClasses(const int* pos_left, int k, const int* pos_right, int mr,
                const Bit& bit) {
      CTSDD_CHECK(k >= 1 && k <= 6 && mr >= 1 && mr <= 6);
      // Scatter tables: table index bits of each left/right assignment.
      uint32_t scat_left[64], scat_right[64];
      scat_left[0] = scat_right[0] = 0;
      for (uint32_t x = 1; x < (1u << k); ++x) {
        scat_left[x] =
            scat_left[x & (x - 1)] | (1u << pos_left[std::countr_zero(x)]);
      }
      for (uint32_t x = 1; x < (1u << mr); ++x) {
        scat_right[x] =
            scat_right[x & (x - 1)] | (1u << pos_right[std::countr_zero(x)]);
      }
      // Enumerate cofactor words and group equal ones (at most 2^k <= 64
      // classes: a linear probe beats any hash map at this size).
      for (uint32_t a = 0; a < (1u << k); ++a) {
        uint64_t w = 0;
        const uint32_t base = scat_left[a];
        for (uint32_t b = 0; b < (1u << mr); ++b) {
          w |= static_cast<uint64_t>(bit(base | scat_right[b])) << b;
        }
        int c = -1;
        for (int i = 0; i < num; ++i) {
          if (class_word[i] == w) {
            c = i;
            break;
          }
        }
        if (c < 0) {
          c = num++;
          class_word[c] = w;
          prime_word[c] = 0;
        }
        prime_word[c] |= 1ULL << a;
      }
      CTSDD_CHECK_GE(num, 2);
    }
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
    const WordClasses classes(pos_left, k, pos_right, mr, [&](uint32_t i) {
      return static_cast<bool>((word >> i) & 1);
    });
    SddManager::Elements elements;
    elements.reserve(classes.num);
    for (int c = 0; c < classes.num; ++c) {
      const NodeId prime = Build(
          SmallRef(left, classes.prime_word[c], vt_.VarsBelow(left)));
      const NodeId sub = Build(
          SmallRef(right, classes.class_word[c], vt_.VarsBelow(right)));
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
