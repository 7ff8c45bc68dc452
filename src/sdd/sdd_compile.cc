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

// The vtree-guided semantic compiler behind CompileFuncToSdd.
//
// Invariant: CompileShrunk(v, g) takes a subfunction g that depends on
// every variable in g.vars() (callers shrink first), with all of those
// variables below vtree node `v`. It descends to the minimal vtree node
// covering the support, so the memo can key on the function alone: the
// canonical SDD node of a function is unique for the vtree, and the node
// it is normalized at is determined by its support.
//
// Parallel compilation: when the manager carries a parallel executor,
// Compile opens one manager parallel region for the whole recursion and
// Partition forks its left-scope cofactor classes across the pool — each
// class's (prime, sub) pair compiles independently, and Decision
// canonicalizes through the manager's concurrent protocol, so the result
// is pointer-identical to the sequential compile. This is the only fork
// in compilation: each class is a whole subfunction compile, coarse
// enough to pay for a task (the ISA compile runs ~3x faster at 4
// workers), which a single apply operation is not. The subfunction memo
// is sharded under short mutexes (one BoolFunc hash per probe), and
// counter tallies accumulate relaxed-atomically, merged into the manager
// when the compile finishes.
class SemanticSddCompiler {
 public:
  explicit SemanticSddCompiler(SddManager* manager)
      : m_(manager), vt_(manager->vtree()), pool_(manager->executor()) {}

  SddManager::NodeId Compile(const BoolFunc& f) {
    for (int v : f.vars()) {
      CTSDD_CHECK_GE(vt_.LeafOf(v), 0)
          << "vtree missing function variable x" << v;
    }
    const bool open_region = pool_ != nullptr && pool_->parallel() &&
                             !m_->InParallelRegion();
    if (open_region) m_->BeginParallelRegion();
    const SddManager::NodeId result = CompileShrunk(vt_.root(), f.Shrink(), 0);
    if (open_region) m_->EndParallelRegion();
    SddManager::PerfCounters tally;
    tally.semantic_partitions =
        partitions_.load(std::memory_order_relaxed);
    tally.semantic_memo_hits = memo_hits_.load(std::memory_order_relaxed);
    m_->AddCounters(tally);
    return result;
  }

 private:
  using NodeId = SddManager::NodeId;

  // Fork cutoff: partition classes fork while the vtree recursion is at
  // depth < kForkDepth. Class counts are the cofactor multiplicities
  // (up to 2^|left vars|), so shallow levels alone saturate the pool.
  // The cutoff also bounds memory: a helping join runs other tasks on top
  // of its own frame, so the live Partition frames (each holding its
  // cofactor table) grow with the fork depth. On the ISA compile, depth 4
  // keeps ~38 frames live (~50 MB peak RSS at 4 workers, vs ~370 frames
  // and ~200 MB at depth 8) at the same speed; depth 3 is slower.
  static constexpr int kForkDepth = 4;
  static constexpr size_t kMemoShards = 16;

  bool Covers(int node, const std::vector<int>& vars) const {
    const std::vector<int>& below = vt_.VarsBelow(node);
    return std::includes(below.begin(), below.end(), vars.begin(),
                         vars.end());
  }

  bool InParallel() const { return m_->InParallelRegion(); }

  NodeId CompileShrunk(int v, const BoolFunc& g, int depth) {
    // Budget poll: covers the deadline/cancel paths even when this
    // subtree resolves entirely from memos (no allocations to charge).
    WorkBudget* const budget = m_->budget();
    if (budget != nullptr && !budget->CheckPoint()) {
      return SddManager::kAborted;
    }
    if (g.IsConstantFalse()) return SddManager::kFalse;
    if (g.IsConstantTrue()) return SddManager::kTrue;
    // Descend to the minimal vtree node covering g's support.
    const std::vector<int>& gv = g.vars();
    while (!vt_.is_leaf(v)) {
      if (Covers(vt_.left(v), gv)) {
        v = vt_.left(v);
      } else if (Covers(vt_.right(v), gv)) {
        v = vt_.right(v);
      } else {
        break;
      }
    }
    // Small-scope functions bypass the BoolFunc-keyed memo entirely: the
    // manager's (anchor, word) cache is their memo, probes are word ops,
    // and every node built below registers itself on creation.
    const int anchor = m_->SmallAnchor(v);
    if (anchor >= 0) {
      const NodeId hit =
          m_->LookupSemantic(v, g.WordOver(vt_.VarsBelow(anchor)));
      if (hit >= 0) {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return hit;
      }
      if (vt_.is_leaf(v)) {
        // One relevant variable: g is that literal (a constant would
        // have been caught above, and g depends on the variable).
        return m_->Literal(gv[0], /*positive=*/g.EvalIndex(1));
      }
      return Partition(v, g, depth);
    }
    const uint64_t ghash = BoolFunc::Hasher{}(g);
    MemoShard& shard = memo_[ghash % kMemoShards];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(g);
      if (it != shard.map.end()) {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    const NodeId result = Partition(v, g, depth);
    if (result >= 0) {  // aborted results are never memoized
      // A racing task may have compiled g concurrently; both computed
      // the same canonical node, so either entry wins.
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.emplace(g, result);
    }
    return result;
  }

  // Decomposes g at internal vtree node v (g has support on both sides of
  // v): enumerates all left-scope cofactors in one word-parallel sweep,
  // groups equal ones, and emits one element per distinct cofactor. The
  // group indicator functions are the primes — exhaustive and pairwise
  // disjoint by construction, with distinct subs, so the partition is
  // already compressed and MakeDecision runs zero applies. With a pool
  // attached, the classes — independent (prime, sub) compilations — fork
  // across workers.
  NodeId Partition(int v, const BoolFunc& g, int depth) {
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
    if (m_->SmallAnchor(vt_.left(v)) >= 0 &&
        m_->SmallAnchor(vt_.right(v)) >= 0) {
      return WordPartition(v, g, left_vars, depth);
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
    SddManager::Elements elements(reps.size());
    const auto compile_class = [&](size_t c) {
      const NodeId prime = CompileShrunk(
          vt_.left(v),
          BoolFunc::FromWords(left_vars, std::move(prime_words[c]))
              .Shrink(),
          depth + 1);
      const NodeId sub =
          CompileShrunk(vt_.right(v), reps[c]->Shrink(), depth + 1);
      elements[c] = {prime, sub};
    };
    if (InParallel() && depth < kForkDepth) {
      exec::ParallelFor(pool_, reps.size(), m_->budget_token(),
                        compile_class);
    } else {
      for (size_t c = 0; c < reps.size(); ++c) compile_class(c);
    }
    // A cancelled ParallelFor may have skipped classes entirely, leaving
    // default-constructed elements: abort before they canonicalize.
    if (m_->AbortRequested()) return SddManager::kAborted;
    return m_->Decision(v, std::move(elements));
  }

  // Partition specialization for nodes whose children both have small
  // (one-word) scopes: cofactor enumeration, grouping, and the prime
  // indicators all run on plain 64-bit words with no BoolFunc
  // allocations, and primes/subs resolve through the manager's semantic
  // layer (building a BoolFunc only on a cache miss).
  NodeId WordPartition(int v, const BoolFunc& g,
                       const std::vector<int>& left_vars, int depth) {
    const int n = g.num_vars();
    const int k = static_cast<int>(left_vars.size());
    const int mr = n - k;
    CTSDD_CHECK_LE(k, 6);
    CTSDD_CHECK_GE(mr, 1);
    CTSDD_CHECK_LE(mr, 6);
    std::vector<int> right_vars;
    right_vars.reserve(mr);
    // Bit positions of the left/right variables within g's table index.
    int pos_left[6], pos_right[6];
    {
      int li = 0, ri = 0;
      for (int i = 0; i < n; ++i) {
        if (li < k && g.vars()[i] == left_vars[li]) {
          pos_left[li++] = i;
        } else {
          pos_right[ri++] = i;
          right_vars.push_back(g.vars()[i]);
        }
      }
    }
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
    uint64_t class_word[64], prime_word[64];
    int num_classes = 0;
    for (uint32_t a = 0; a < (1u << k); ++a) {
      uint64_t w = 0;
      const uint32_t base = scat_left[a];
      for (uint32_t b = 0; b < (1u << mr); ++b) {
        w |= static_cast<uint64_t>(g.EvalIndex(base | scat_right[b])) << b;
      }
      int c = -1;
      for (int i = 0; i < num_classes; ++i) {
        if (class_word[i] == w) {
          c = i;
          break;
        }
      }
      if (c < 0) {
        c = num_classes++;
        class_word[c] = w;
        prime_word[c] = 0;
      }
      prime_word[c] |= 1ULL << a;
    }
    CTSDD_CHECK_GE(num_classes, 2);
    SddManager::Elements elements;
    elements.reserve(num_classes);
    for (int c = 0; c < num_classes; ++c) {
      const NodeId prime =
          CompileSmallWord(vt_.left(v), prime_word[c], left_vars, depth);
      const NodeId sub =
          CompileSmallWord(vt_.right(v), class_word[c], right_vars, depth);
      elements.emplace_back(prime, sub);
    }
    return m_->Decision(v, std::move(elements));
  }

  // Compiles the one-word function `w` over sorted `wvars` into the small
  // subtree at `child`: constants and semantic-layer hits are O(1); only
  // unseen functions materialize a BoolFunc and recurse.
  NodeId CompileSmallWord(int child, uint64_t w,
                          const std::vector<int>& wvars, int depth) {
    const uint32_t bits = 1u << wvars.size();
    const uint64_t full = (bits >= 64) ? ~0ULL : ((1ULL << bits) - 1);
    if (w == 0) return SddManager::kFalse;
    if ((w & full) == full) return SddManager::kTrue;
    const int anchor = m_->SmallAnchor(child);
    const NodeId hit = m_->LookupSemantic(
        child, BoolFunc::ExpandWord(w, wvars, vt_.VarsBelow(anchor)));
    if (hit >= 0) return hit;
    return CompileShrunk(child,
                         BoolFunc::FromWords(wvars, {w & full}).Shrink(),
                         depth + 1);
  }

  struct MemoShard {
    std::mutex mu;
    std::unordered_map<BoolFunc, NodeId, BoolFunc::Hasher> map;
  };

  SddManager* m_;
  const Vtree& vt_;
  exec::TaskPool* pool_;
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
  // Preorder positions of vtree nodes: inputs of wide gates are sorted by
  // the position of the vtree node they are normalized at, so that
  // scope-adjacent operands combine first in the chunked n-ary Or fold.
  const Vtree& vt = manager->vtree();
  std::vector<int> preorder(vt.num_nodes(), 0);
  {
    int counter = 0;
    std::vector<int> stack = {vt.root()};
    while (!stack.empty()) {
      const int node = stack.back();
      stack.pop_back();
      preorder[node] = counter++;
      if (!vt.is_leaf(node)) {
        stack.push_back(vt.right(node));
        stack.push_back(vt.left(node));
      }
    }
  }
  auto position = [&](SddManager::NodeId id) {
    if (id < 0) return -1;  // aborted operand (budget trip upstream)
    const int vnode = manager->VtreeOf(id);
    return vnode < 0 ? -1 : preorder[vnode];
  };
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
        if (g.kind == GateKind::kOr) {
          // Or fold: scope-adjacent disjuncts combine first.
          std::stable_sort(inputs.begin(), inputs.end(),
                           [&](SddManager::NodeId a, SddManager::NodeId b) {
                             return position(a) < position(b);
                           });
        }
        // And inputs need no sort: SddManager::AndN schedules wide
        // conjunctions itself, folding them bottom-up along the vtree
        // (each conjunct joins at the node it is normalized at, in
        // circuit order within a node).
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
