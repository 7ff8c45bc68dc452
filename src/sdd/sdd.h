// Sentential decision diagrams (Darwiche 2011; Section 2.1 of the paper).
//
// An SDD respecting a vtree T is either a constant, a literal, or a
// decision node normalized at an internal vtree node v: a set of elements
// {(p_i, s_i)} where the primes p_i are SDDs over X_{left(v)} forming an
// exhaustive, pairwise-disjoint case distinction ((1)-(2) in the paper)
// and the subs s_i are SDDs over X_{right(v)}. Canonical SDDs additionally
// keep subs distinct ((3)); with compression and trimming the manager
// below maintains canonical form, so semantically equal SDDs are pointer
// equal.
//
// Width (Definition 5) is reported as the maximum, over vtree nodes v, of
// the number of elements of reachable decision nodes normalized at v —
// each element is one AND gate structured by v in the circuit reading of
// the SDD.
//
// Storage: nodes live in a chunked stable-address store
// (util/node_store.h); decision-node elements live in per-context pool
// arenas with stable addresses (util/arena.h); a node is (vnode, pointer,
// count), so the unique-table probe hashes the raw element words in place
// instead of copying an owning vector per key, and Apply can walk an
// operand's elements while recursive calls allocate. Apply results are
// memoized in a bounded computed cache (util/computed_cache.h): eviction
// costs recomputation, never correctness — canonicity lives in the unique
// table alone. Negations are exact permanent links (one int per node),
// and the apply hot path consults them to resolve f op !f without
// a cache probe.
//
// Threading: the manager is single-owner, and debug builds assert that
// every entry point runs on one thread. AttachExecutor lends it a
// fork-join pool (exec/) for the vtree-guided semantic compiler
// (sdd/sdd_compile.cc), whose workers only plan cofactor partitions over
// BoolFunc tables; the owning thread then makes every manager call, so
// a compile assigns the same node ids with or without the pool. Apply,
// AndN, OrN and Not never fork (forking element-product rows lost to the
// sequential path on every measured workload; src/README.md, "The
// parallel runtime").

#ifndef CTSDD_SDD_SDD_H_
#define CTSDD_SDD_SDD_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "func/bool_func.h"
#include "util/arena.h"
#include "util/computed_cache.h"
#include "util/manager_core.h"
#include "util/node_store.h"
#include "util/scoped_memo.h"
#include "util/status.h"
#include "util/wmc_tape.h"
#include "vtree/vtree.h"

namespace ctsdd {

// Computed-cache bounds (maximum slot counts; rounded up to powers of
// two — the caches start small and grow under eviction pressure up to the
// bound). Shrinking these forces eviction and recomputation but cannot
// change any result; the apply-core tests pin that down. Namespace-scope
// (not nested) so it can serve as a defaulted constructor argument.
struct SddOptions {
  size_t apply_cache_slots = 1 << 22;
  size_t sem_cache_slots = 1 << 21;  // (anchor, word) -> node cache
};

// Node ids, roots, budgets and memory accounting are the shared lifecycle
// in util/manager_core.h; the SDD-specific parts are noted below.
class SddManager : public ManagerCore<SddManager> {
 public:
  // One (prime, sub) pair of a decision node.
  using Element = std::pair<NodeId, NodeId>;
  // Elements of a decision node, sorted by (prime, sub) id.
  using Elements = std::vector<Element>;
  // Read-only view into an element arena; stays valid for the manager's
  // lifetime (arenas never move allocated chunks).
  using ElementSpan = std::span<const Element>;

  using Options = SddOptions;

  explicit SddManager(Vtree vtree, Options options = {});

  const Vtree& vtree() const { return vtree_; }

  NodeId Literal(int var, bool positive);

  // Canonicalizes (compress + trim + hash-cons) `elements` into a decision
  // at internal vtree node `vnode`. The caller must supply a valid
  // partition: primes non-false, pairwise disjoint and jointly exhaustive
  // over the left scope of `vnode`, subs within the right scope — exactly
  // the contract Validate() checks. This is the entry point for compilers
  // that construct partitions directly (the vtree-guided semantic compiler
  // in sdd/sdd_compile.cc) instead of going through Apply. Decision
  // allocations charge the attached budget; literal interning is never
  // charged (bounded by 2·|vars|).
  NodeId Decision(int vnode, Elements elements);

  NodeId And(NodeId a, NodeId b);
  NodeId Or(NodeId a, NodeId b);
  NodeId Not(NodeId a);

  // Multi-way conjunction/disjunction with neutral operands dropped and
  // absorbing terminals short-circuited. Up to kNaryFoldArity operands
  // (util/manager_core.h) combine in one n-ary element product. Wider
  // ones fold bottom-up along the vtree: each operand joins the fold at
  // the vtree node it is normalized at, so every intermediate combines
  // one subtree's operands. A disjunction first compresses each node's
  // operands: single conjunctions p ∧ s sharing a sub s become
  // (p_1 ∨ ... ∨ p_k) ∧ s, the inner disjunction folding in the node's
  // left subtree.
  NodeId AndN(std::vector<NodeId> ops);
  NodeId OrN(std::vector<NodeId> ops);

  // Conditions on var := value.
  NodeId Restrict(NodeId a, int var, bool value);

  // Existential / universal quantification of one variable:
  // Exists = f|x=0 OR f|x=1, Forall = f|x=0 AND f|x=1. Note that
  // disjoining the two restrictions does not preserve determinism in
  // general — this is exactly the paper's observation (Section 1) about
  // why the Tseitin route of Petke–Razgon cannot stay deterministic; the
  // manager re-canonicalizes, which may cost size.
  NodeId Exists(NodeId a, int var);
  NodeId Forall(NodeId a, int var);

  // Existentially quantifies a set of variables (in the given order).
  NodeId ExistsAll(NodeId a, const std::vector<int>& vars);

  // Some model of `a` as a (var -> value) map over the full vtree
  // variable set; nullopt-like: returns false and leaves `out` empty when
  // unsatisfiable.
  bool AnyModel(NodeId a, std::map<int, bool>* out) const;

  bool Evaluate(NodeId a, const std::map<int, bool>& assignment) const;

  // Models over the full vtree variable set.
  uint64_t CountModels(NodeId a) const;

  // Probability under independent variable probabilities (by global id;
  // variables absent from the map default to probability 0.5): builds
  // a's tape over the vtree variables and evaluates it once.
  double WeightedModelCount(NodeId a,
                            const std::map<int, double>& prob) const;

  // The WMC tape of `a` (util/wmc_tape.h) whose weight slot i is the
  // variable slot_vars[i]; every variable of `a` must be listed. A node's
  // probability does not depend on the vtree node it is read at (the
  // variables between the two scopes sum out to 1), so each decision is
  // one entry however deep below its parent's vtree child it sits.
  WmcTape BuildWmcTape(NodeId a, std::span<const int> slot_vars) const;

  // The function computed by `a`, over the full vtree variable set
  // (requires <= BoolFunc::kMaxVars variables; for tests).
  BoolFunc ToBoolFunc(NodeId a) const;

  // --- Structural statistics ---

  // Total elements over reachable decision nodes (the standard SDD size).
  int Size(NodeId a) const;
  // Number of reachable decision nodes.
  int NumDecisions(NodeId a) const;
  // Definition 5 width: max over vtree nodes of elements structured there.
  int Width(NodeId a) const;
  // Elements per vtree node (indexed by vtree node id).
  std::vector<int> VtreeProfile(NodeId a) const;

  // Checks the SDD invariants of `a`: primes partition their scope
  // (pairwise-disjoint via Apply, exhaustive via model counts), subs are
  // distinct (canonicity), and nodes respect the vtree. Non-const because
  // the disjointness checks go through the apply cache.
  Status Validate(NodeId a);

  // Manager-wide structural self-check (contrast Validate(NodeId), which
  // checks one root's partition semantics): every node is well-formed,
  // element ids are in range, and the unique table maps each decision to
  // itself. Used by tests to assert aborted operations left the manager
  // consistent.
  Status Validate() const;

  // Accounted-resident bytes: both node stores, the unique table, the
  // apply/semantic caches, the apply memo, and the element arena.
  size_t MemoryBytes() const {
    return nodes_.MemoryBytes() + fast_info_.MemoryBytes() +
           unique_.MemoryBytes() + apply_cache_.MemoryBytes() +
           sem_cache_.MemoryBytes() + apply_memo_.MemoryBytes() +
           element_arena_.MemoryBytes();
  }

  // Computed-cache effectiveness counters, for benches and tuning.
  struct CacheStats {
    uint64_t lookups;
    uint64_t hits;
    size_t slots;
  };
  CacheStats apply_cache_stats() const {
    return {apply_cache_.lookups(), apply_cache_.hits(),
            apply_cache_.num_slots()};
  }
  // The exact per-operation apply memo (second memoization level).
  CacheStats apply_memo_stats() const {
    return {apply_memo_.lookups(), apply_memo_.hits(),
            apply_memo_.num_slots()};
  }
  // The small-scope (anchor, word) -> node semantic cache.
  CacheStats sem_cache_stats() const {
    return {sem_cache_.lookups(), sem_cache_.hits(), sem_cache_.num_slots()};
  }

  // Work counters for the apply/compile hot paths, for benches and
  // regression diagnosis. Monotone over the manager's lifetime.
  struct PerfCounters {
    uint64_t apply_calls = 0;       // ApplyRec entries (incl. recursive)
    uint64_t element_products = 0;  // (prime, sub) pairs emitted by apply
    uint64_t absorb_collapses = 0;  // rows/cols fused by an absorbing sub
    uint64_t compression_merges = 0;  // equal-sub groups fused (OrN merge)
    uint64_t nary_applies = 0;        // n-ary element-product expansions
    uint64_t nary_fallbacks = 0;      // ApplyN product-cap binary fallbacks
    uint64_t sem_apply_hits = 0;       // applies resolved by word semantics
    uint64_t semantic_partitions = 0;  // semantic-compiler vtree partitions
    uint64_t semantic_memo_hits = 0;   // semantic-compiler subfunction hits
  };
  const PerfCounters& counters() const { return counters_; }
  // The semantic compiler (sdd/sdd_compile.cc) reports its partition and
  // memo-hit counts here so one stats surface covers both pipelines.
  PerfCounters* mutable_counters() { return &counters_; }

  // The recorded negation of `a`, or -1 when not (yet) known. Complement
  // literal pairs and every Not() result are linked eagerly, which lets
  // Apply short-circuit f op !f without a cache probe.
  NodeId KnownNegation(NodeId a) const {
    return fast_info_[a].negation;
  }

  // --- Small-scope semantic layer ---
  //
  // Every vtree subtree with at most kSmallScopeVars variables has a
  // "small anchor": its topmost ancestor whose scope still fits one
  // 64-bit truth table. Each node normalized inside such a subtree
  // carries its truth table word over the anchor's scope, and a bounded
  // cache maps (anchor, word) back to the canonical node. Apply calls
  // whose operands share an anchor then resolve by pure word arithmetic:
  // disjoint primes return false from one AND, subsumption returns an
  // operand, and any result function ever materialized is found without
  // recursing — the vtree-aware semantics of the compiler, applied to the
  // apply hot path. Cache eviction only costs recomputation; results are
  // canonical either way.
  static constexpr int kSmallScopeVars = 6;

  // The small anchor of `vnode`, or -1 if its scope exceeds
  // kSmallScopeVars variables.
  int SmallAnchor(int vnode) const { return anchor_of_vnode_[vnode]; }
  // The canonical node computing truth table `word` over the scope of
  // `vnode`'s small anchor, or -1 when none is cached. `vnode` must have
  // a small anchor and `word` must be masked to the anchor's table.
  NodeId LookupSemantic(int vnode, uint64_t word);

  // --- Node access (read-only) ---
  enum class Kind : uint8_t { kConst, kLiteral, kDecision };
  // Trivially constructible, like every NodeStore element: each store
  // writes all fields, so a fresh chunk is never touched.
  struct Node {
    Kind kind;
    // kConst: value in `sense`. kLiteral: var + sense. kDecision: vnode +
    // elements in the arena.
    bool sense;
    int var;
    int vnode;  // vtree node where normalized (leaf for literals)
    const Element* elems;
    uint32_t num_elems;
  };
  const Node& node(NodeId id) const { return nodes_[id]; }
  // The (prime, sub) pairs of a decision node (empty for others). The view
  // stays valid across later manager operations.
  ElementSpan elements(NodeId id) const {
    const Node& n = nodes_[id];
    return {n.elems, n.num_elems};
  }
  bool IsConst(NodeId id) const { return id <= 1; }

  // The vtree node a node is normalized at (-1 for constants).
  int VtreeOf(NodeId id) const { return nodes_[id].vnode; }

 private:
  enum class Op : uint8_t { kAnd, kOr };

  struct NaryKey {
    Op op = Op::kAnd;
    std::vector<NodeId> ops;  // sorted, unique, constant-free
    bool operator==(const NaryKey&) const = default;
  };
  struct NaryKeyHash {
    size_t operator()(const NaryKey& k) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(k.op);
      for (const NodeId id : k.ops) {
        h ^= static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };

  // Element-product budget for one ApplyN expansion (product of operand
  // element counts); past it the operands fall back to binary folding,
  // whose intermediate canonicalization keeps the meet partition in check.
  static constexpr size_t kNaryProductCap = 4096;

  // Charges one node allocation against the attached budget's lease;
  // false when the budget denies it (the caller returns kAborted before
  // allocating).
  bool Charge() {
    if (budget_lease_ == 0 && !RefillLease(&budget_lease_)) return false;
    --budget_lease_;
    return true;
  }

  // Canonicalizes (compress + trim + hash-cons) the elements in *elements,
  // which is consumed as scratch space. All recursive Apply calls the
  // compression needs happen before the unique-table probe.
  NodeId MakeDecision(int vnode, Elements* elements);
  // The unique-table hash of a decision's sorted elements (shared by
  // MakeDecision and Validate).
  static uint64_t DecisionHash(int vnode, ElementSpan elements);
  // Appends a node plus its lockstep fast_info_ slot.
  NodeId NewNode(const Node& n);
  // Two-level memoization: the bounded global apply cache gives cross-
  // operation reuse; an exact memo scoped to each top-level Apply call
  // preserves the O(|a|·|b|) apply bound even when the global cache
  // evicts (a lossy cache alone turns deep recursions exponential once
  // the live set outgrows it). The memo is cleared when the outermost
  // Apply returns, so its memory is bounded by one operation's footprint.
  // The recursions run on the calling thread and never fork.
  NodeId Apply(NodeId a, NodeId b, Op op);
  NodeId ApplyRec(NodeId a, NodeId b, Op op);
  // Constant-time resolution attempt, inlined into the element-product
  // loops so the (dominant) trivially-resolvable pairs never pay a
  // recursive call: terminals, equality, recorded negations, and the
  // small-scope word semantics (disjointness, coverage, subsumption, and
  // cached result functions). Returns -1 when a full ApplyRec is needed.
  NodeId FastApply(NodeId a, NodeId b, Op op) {
    if (op == Op::kAnd) {
      if (a == kFalse || b == kFalse) return kFalse;
      if (a == kTrue) return b;
      if (b == kTrue) return a;
    } else {
      if (a == kTrue || b == kTrue) return kTrue;
      if (a == kFalse) return b;
      if (b == kFalse) return a;
    }
    if (a == b) return a;
    const FastInfo& fa = fast_info_[a];
    const FastInfo& fb = fast_info_[b];
    if (fa.negation == b) {
      return (op == Op::kAnd) ? kFalse : kTrue;
    }
    const int anchor = fa.anchor;
    if (anchor < 0 || anchor != fb.anchor) return -1;
    const uint64_t wr =
        (op == Op::kAnd) ? (fa.word & fb.word) : (fa.word | fb.word);
    NodeId hit = -1;
    if (wr == 0) {
      hit = kFalse;
    } else if (wr == anchor_mask_of_vnode_[anchor]) {
      hit = kTrue;
    } else if (wr == fa.word) {
      hit = a;
    } else if (wr == fb.word) {
      hit = b;
    } else {
      NodeId cached;
      if (sem_cache_.Lookup(Hash2SemKey(anchor, wr), SemKey{anchor, wr},
                            &cached)) {
        hit = cached;
      }
    }
    if (hit >= 0) ++counters_.sem_apply_hits;
    return hit;
  }
  static uint64_t Hash2SemKey(int anchor, uint64_t word);
  // n-ary apply: lifts all operands to their common vtree LCA and runs one
  // pruned element product over every operand's element list — dead
  // (false) partial primes cut whole subtrees of the product, subs combine
  // by a recursive n-ary fold, and the result canonicalizes once instead
  // of once per binary apply. `ops` must be constant-free and duplicate-
  // free with >= 2 entries (NormalizeNaryOps's postcondition); order is
  // free — the caller's sequence is preserved, and only the internal memo
  // key is sorted. Falls back to binary folds past kNaryProductCap.
  NodeId ApplyN(const std::vector<NodeId>& ops, Op op);
  // AndN/OrN below EnterOp: normalizes, then one ApplyN up to
  // kNaryFoldArity operands, else the vtree fold over fold_keys_.
  NodeId NaryRec(std::vector<NodeId> ops, Op op);
  // Combines ops[k] for the keys k in fold_keys_[lo, hi), which lie in
  // one vtree subtree: the halves below the keys' LCA w fold first and
  // are combined, then w's own bucket joins in operand order (for Or,
  // after merging its single conjunctions by sub). Empty halves are
  // skipped, so the recursion follows the keys' LCA tree.
  NodeId FoldRec(const std::vector<NodeId>& ops, Op op, size_t lo,
                 size_t hi);
  // Shared operand normalization for AndN/OrN/ApplyN: drops identity
  // operands and duplicates, sorts, and detects absorbing terminals and
  // complementary pairs. Returns true if the fold is decided immediately
  // (result in *out).
  bool NormalizeNaryOps(std::vector<NodeId>* ops, Op op, NodeId* out);
  NodeId NotRec(NodeId a);
  // Records a <-> b as negations of each other (for apply short-circuits).
  void LinkNegations(NodeId a, NodeId b);
  // Computes and registers the semantic word of a freshly created node
  // whose vnode has a small anchor (no-op otherwise). Must be called for
  // every node before its id is published.
  void RegisterSemantic(NodeId id);
  // A view of `a` as elements normalized at `vnode` (having lifted it if
  // needed); lifted literal/decision cases materialize into *store.
  ElementSpan LiftTo(int vnode, NodeId a, std::array<Element, 2>* store);
  // Brackets an operation (Apply, AndN, OrN, Not, Restrict, Decision).
  // LeaveOp resets the memos when the outermost operation returns.
  void EnterOp() {
    thread_check_.Check();
    ++op_depth_;
  }
  void LeaveOp() {
    if (--op_depth_ == 0) {
      apply_memo_.Reset();
      nary_memo_.clear();
    }
  }

  uint64_t CountModelsAt(NodeId a, int vnode,
                         std::unordered_map<uint64_t, uint64_t>* memo) const;

  struct ApplyKey {
    NodeId a = 0, b = 0;
    Op op = Op::kAnd;
    bool operator==(const ApplyKey&) const = default;
  };
  struct SemKey {
    int32_t anchor = -1;
    uint64_t word = 0;
    bool operator==(const SemKey&) const = default;
  };
  // Per-node record for FastApply, packed so one pair of loads answers
  // the negation and small-scope checks: the recorded negation (-1 if
  // unknown), the vnode's small anchor (-1 if the scope is wide), and
  // the truth table word over the anchor scope (valid iff anchor >= 0;
  // written before the node id is published, read-only afterwards). The
  // struct stays POD — chunk allocation leaves entries untouched until
  // their id is created.
  struct FastInfo {
    NodeId negation;
    int32_t anchor;
    uint64_t word;
  };
  struct ApplyKeyHash {
    size_t operator()(const ApplyKey& k) const {
      uint64_t h = (static_cast<uint64_t>(k.a) << 33) ^
                   (static_cast<uint64_t>(k.b) << 1) ^
                   static_cast<uint64_t>(k.op);
      h *= 0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };

  // ManagerCore hooks.
  friend class ManagerCore<SddManager>;
  template <class F>
  void ForEachChild(NodeId id, F&& f) const {
    for (const auto& [p, s] : elements(id)) {
      f(p);
      f(s);
    }
  }
  void ResetLeases() { budget_lease_ = 0; }
  void AccountStructures(MemAccount* account);

  Vtree vtree_;
  NodeStore<Node> nodes_;
  NodeStore<FastInfo> fast_info_;  // indexed in lockstep with nodes_
  std::vector<NodeId> literal_ids_;  // (var << 1 | sign) -> id or -1
  ComputedCache<ApplyKey, NodeId> apply_cache_;
  // Exact memo for the currently running top-level operation (see
  // ApplyRec): preserves the polynomial recursion bounds that the
  // bounded lossy caches alone cannot guarantee; reset when the
  // outermost operation ends so memory stays bounded per operation.
  ScopedMemo<ApplyKey, NodeId> apply_memo_;
  // Postorder index of every vtree node (the AndN/OrN vtree fold).
  std::vector<uint32_t> postorder_of_vnode_;
  // Small-scope semantic layer (see SmallAnchor): per-vtree-node anchors
  // and masks plus the (anchor, word) -> canonical node cache.
  std::vector<int> anchor_of_vnode_;
  std::vector<uint64_t> anchor_mask_of_vnode_;
  ComputedCache<SemKey, NodeId> sem_cache_;
  PerfCounters counters_;
  // Decision elements (stable addresses).
  PoolArena<Element> element_arena_;
  // Per-recursion-depth element buffers reused across ApplyRec frames,
  // so the hot path performs no per-call allocation once warmed up. A
  // deque keeps references stable while deeper frames extend it.
  std::deque<Elements> scratch_;
  size_t rec_depth_ = 0;
  // Scratch for NormalizeNaryOps's sorted probe set (that function never
  // re-enters itself, so one buffer suffices).
  std::vector<NodeId> nary_probe_scratch_;
  // The vtree fold's keys, (postorder of the operand's vnode, operand
  // index) packed per word and sorted. Stack-shaped: a fold appends its
  // keys past the enclosing fold's and drops them when it returns.
  std::vector<uint64_t> fold_keys_;
  // Exact memo for n-ary folds within the current top-level operation.
  std::unordered_map<NaryKey, NodeId, NaryKeyHash> nary_memo_;
  // Remaining node allocations pre-charged against the attached budget
  // (see Charge; reset by AttachBudget).
  uint32_t budget_lease_ = 0;
};

}  // namespace ctsdd

#endif  // CTSDD_SDD_SDD_H_
