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
// Parallel compile (exec/): AttachExecutor lends the manager a
// work-stealing pool, and the vtree-guided semantic compiler
// (sdd/sdd_compile.cc) forks its left-scope cofactor classes across
// workers inside a *parallel region*. Within a region the unique table
// runs its CAS insert-or-find protocol, the semantic cache is lock-
// striped, node ids and element spans are allocated from per-worker
// stripes, and the owning-thread assertion is suspended
// (util/thread_check.h ParallelRegion). Results are pointer-identical to
// sequential compilation — canonicity hash-conses every decision to one
// id regardless of which worker builds it first — so GC, negation links,
// and the semantic cache work unchanged. The only operation a region
// admits is Decision on an already-compressed partition; Apply, AndN,
// OrN and Not are single-owner and never fork (forking element-product
// rows lost to the sequential path on every measured workload;
// src/README.md, "The parallel runtime").

#ifndef CTSDD_SDD_SDD_H_
#define CTSDD_SDD_SDD_H_

#include <array>
#include <atomic>
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
#include "util/spinlock.h"
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
  // The semantic cache starts at this size instead of growing from the
  // default 256 slots: a miss there cascades into a whole recompilation
  // of the missed function, so warm-up thrash is disproportionately
  // expensive.
  size_t sem_cache_init_slots = 1 << 14;
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
  // in sdd/sdd_compile.cc) instead of going through Apply. Safe to call
  // from worker tasks inside an open parallel region, where the partition
  // must also be compressed already (distinct subs): the concurrent path
  // canonicalizes without running any apply.
  NodeId Decision(int vnode, Elements elements);

  NodeId And(NodeId a, NodeId b);
  NodeId Or(NodeId a, NodeId b);
  NodeId Not(NodeId a);

  // Multi-way conjunction/disjunction with neutral operands dropped and
  // absorbing terminals short-circuited. AndN accumulates sequentially
  // (each conjunct constrains the intermediate, the CNF regime); OrN folds
  // pairwise in a balanced tree (disjuncts don't constrain each other, so
  // a sequential accumulator would re-walk a growing DNF per operand).
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

  // --- Parallel execution ------------------------------------------------
  //
  // With a parallel pool attached, the vtree-semantic compiler spans its
  // whole recursion in one explicit region and forks there. Inside a
  // region workers may call only Decision, LookupSemantic and Literal
  // (pre-interned); Apply/AndN/OrN/Not, Restrict, GC and root bookkeeping
  // are single-owner operations outside regions. Results are pointer-
  // identical to sequential execution.

  bool InParallelRegion() const { return par_active_; }

  void BeginParallelRegion();
  void EndParallelRegion();

  // Decision allocations charge per-context leases; literal interning is
  // never charged (bounded by 2·|vars|). budget_token() is the attached
  // budget's cancel token for exec::ParallelFor, or nullptr without one.
  const std::atomic<bool>* budget_token() const {
    return budget_ == nullptr ? nullptr : budget_->token();
  }

  // Manager-wide structural self-check (contrast Validate(NodeId), which
  // checks one root's partition semantics): every live node is well-
  // formed, element ids are live and in range, dead slots match the free
  // list, and the unique table maps each live decision to itself. Used
  // by tests to assert aborted operations left the manager consistent.
  Status Validate() const;

  // --- Memory lifecycle -------------------------------------------------
  //
  // Beyond the shared contract: constants and literals are permanent
  // roots; a collection severs negation links into collected nodes and
  // rebuilds the (anchor, word) semantic cache from the survivors; freed
  // decisions donate their element spans to a size-bucketed free list
  // that MakeDecision reuses, so the element arenas' footprint is bounded
  // by their live + recycled high-water mark.

  // Mark-from-roots collection; returns the number of nodes reclaimed.
  size_t GarbageCollect();

  // Returns the computed caches and per-operation memos to their initial
  // footprint (contents dropped — only recomputation cost; the semantic
  // cache repopulates as nodes are created).
  void ShrinkCaches();

  // Releases only the per-operation apply memo, which keeps the capacity
  // of the largest recent operation between operations; the computed and
  // semantic caches are untouched (no semantic-cache rebuild).
  void ReleaseMemos();

  // Accounted-resident bytes: both node stores, the unique table, the
  // apply/semantic caches, the apply memo, and every context's element
  // arena. Sequential contexts only (walks the context arenas).
  size_t MemoryBytes() const {
    size_t total = nodes_.MemoryBytes() + fast_info_.MemoryBytes() +
                   unique_.MemoryBytes() + apply_cache_.MemoryBytes() +
                   sem_cache_.MemoryBytes() + apply_memo_.MemoryBytes();
    for (const Ctx& cx : ctxs_) total += cx.element_arena.MemoryBytes();
    return total;
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
  // regression diagnosis. Monotone over the manager's lifetime; inside a
  // parallel region increments accumulate per worker and merge when the
  // region ends, so read them outside regions.
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
  // Single-owner contexts only; worker tasks report through
  // AddCounters().
  PerfCounters* mutable_counters() { return &counters_; }
  // Merges a batch of externally accumulated counters (the parallel
  // semantic compiler's per-task tallies).
  void AddCounters(const PerfCounters& delta);

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
  // Routes through the striped cache protocol inside a parallel region.
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

  // Per-execution-context state: one Ctx per pool slot (plus slot 0 for
  // the single-owner path). Everything decision construction mutates that
  // is not a shared, protocol-guarded structure lives here, so region
  // workers never contend: the element arena stripe, the node-id block
  // cursor, the budget lease, and the worker's counter tally (merged into
  // counters_ at region end). The apply scratch and n-ary memo are used
  // by slot 0 only, since applies never run inside a region.
  struct Ctx {
    // Per-recursion-depth element buffers reused across ApplyRec frames,
    // so the hot path performs no per-call allocation once warmed up. A
    // deque keeps references stable while deeper frames extend it.
    std::deque<Elements> scratch;
    size_t rec_depth = 0;
    // Scratch for NormalizeNaryOps's sorted probe set (that function
    // never re-enters itself within a context, so one buffer suffices).
    std::vector<NodeId> nary_probe_scratch;
    // Exact memo for n-ary folds within the current top-level operation.
    std::unordered_map<NaryKey, NodeId, NaryKeyHash> nary_memo;
    // Element span stripe (stable addresses; see AllocateElements).
    PoolArena<Element> element_arena;
    // Node-id block cursor (parallel regions only), plus the context's
    // batch of GC-recycled ids (refilled from the shared free list under
    // free_ids_lock_ — parallel regions must reuse freed ids or the node
    // store would grow monotonically across GC cycles).
    size_t alloc_next = 0;
    size_t alloc_end = 0;
    std::vector<NodeId> recycled;
    PerfCounters counters;
    // Remaining node allocations pre-charged against the attached budget
    // (see ChargeSeq/ChargePar; reset by AttachBudget).
    uint32_t budget_lease = 0;
  };

  // Fan-in up to which AndN/OrN use the n-ary element product (ApplyN)
  // instead of folding binary applies; above it, AndN accumulates
  // sequentially and OrN folds ApplyN chunks of this arity.
  static constexpr size_t kNaryFoldArity = 8;
  // Element-product budget for one ApplyN expansion (product of operand
  // element counts); past it the operands fall back to binary folding,
  // whose intermediate canonicalization keeps the meet partition in check.
  static constexpr size_t kNaryProductCap = 4096;
  static constexpr size_t kAllocBlock = 128;  // node ids per worker claim

  // The execution context for the current thread: slot 0 outside
  // parallel regions, 1 + pool slot inside.
  Ctx& CurCtx() {
    return par_active_ ? ctxs_[1 + static_cast<size_t>(pool_->CurrentSlot())]
                       : ctxs_[0];
  }

  // Budget charging through per-context leases. ChargeSeq denies (the caller
  // returns kAborted before allocating); ChargePar charges but never
  // denies — a worker losing the refill race still allocates, bounding
  // overshoot by the number of in-flight workers.
  bool ChargeSeq(Ctx& cx) {
    if (cx.budget_lease == 0 && !RefillLease(&cx.budget_lease)) return false;
    --cx.budget_lease;
    return true;
  }
  void ChargePar(Ctx& cx) {
    if (cx.budget_lease == 0 && !RefillLease(&cx.budget_lease)) return;
    --cx.budget_lease;
  }

  // Canonicalizes (compress + trim + hash-cons) the elements in *elements,
  // which is consumed as scratch space. All recursive Apply calls the
  // compression needs happen before the unique-table probe. kPar == true
  // is the parallel-region protocol (concurrent unique-table insert,
  // per-worker allocation); it requires distinct subs and runs no apply.
  template <bool kPar>
  NodeId MakeDecisionT(Ctx& cx, int vnode, Elements* elements);
  // The unique-table hash of a decision's sorted elements (shared by
  // MakeDecision and the GC rebuild).
  static uint64_t DecisionHash(int vnode, ElementSpan elements);
  // Arena allocation with recycling: exact-size spans freed by the GC are
  // reused before the arena grows (single-owner path; parallel contexts
  // allocate straight from their stripe).
  template <bool kPar>
  Element* AllocateElements(Ctx& cx, size_t n);
  // NewSlot plus the lockstep fast_info_ slot (single-owner path).
  NodeId NewNode(const Node& n);
  // Node allocation inside a parallel region: bump-allocates from the
  // context's claimed id block.
  NodeId AllocNodePar(Ctx& cx, const Node& n);
  // Re-registers every live small-scope node's (anchor, word) -> id
  // entry, restoring the semantic layer after the cache was cleared
  // (GC) or released (ShrinkCaches).
  void RebuildSemanticCache();
  // Two-level memoization: the bounded global apply cache gives cross-
  // operation reuse; an exact memo scoped to each top-level Apply call
  // preserves the O(|a|·|b|) apply bound even when the global cache
  // evicts (a lossy cache alone turns deep recursions exponential once
  // the live set outgrows it). The memo is cleared when the outermost
  // Apply returns, so its memory is bounded by one operation's footprint.
  // The recursions are single-owner: they run on the calling thread
  // outside parallel regions and never fork.
  NodeId Apply(NodeId a, NodeId b, Op op);
  NodeId ApplyRec(Ctx& cx, NodeId a, NodeId b, Op op);
  // Constant-time resolution attempt, inlined into the element-product
  // loops so the (dominant) trivially-resolvable pairs never pay a
  // recursive call: terminals, equality, recorded negations, and the
  // small-scope word semantics (disjointness, coverage, subsumption, and
  // cached result functions). Returns -1 when a full ApplyRec is needed.
  NodeId FastApply(Ctx& cx, NodeId a, NodeId b, Op op) {
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
    if (hit >= 0) ++cx.counters.sem_apply_hits;
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
  NodeId ApplyN(Ctx& cx, const std::vector<NodeId>& ops, Op op);
  NodeId AndNRec(Ctx& cx, std::vector<NodeId> ops);
  NodeId OrNRec(Ctx& cx, std::vector<NodeId> ops);
  // Shared operand normalization for AndN/OrN/ApplyN: drops identity
  // operands and duplicates, sorts, and detects absorbing terminals and
  // complementary pairs. Returns true if the fold is decided immediately
  // (result in *out).
  bool NormalizeNaryOps(Ctx& cx, std::vector<NodeId>* ops, Op op,
                        NodeId* out);
  NodeId NotRec(Ctx& cx, NodeId a);
  // Records a <-> b as negations of each other (for apply short-circuits).
  // Single-owner: negations are only computed outside parallel regions.
  void LinkNegations(NodeId a, NodeId b);
  // Computes and registers the semantic word of a freshly created node
  // whose vnode has a small anchor (no-op otherwise). Must be called for
  // every node before its id is published.
  template <bool kPar>
  void RegisterSemanticT(NodeId id);
  // A view of `a` as elements normalized at `vnode` (having lifted it if
  // needed); lifted literal/decision cases materialize into *store.
  ElementSpan LiftTo(Ctx& cx, int vnode, NodeId a,
                     std::array<Element, 2>* store);
  // Brackets a single-owner apply operation (Apply, AndN, OrN, Not,
  // Restrict): none may run inside a parallel region. LeaveOp resets the
  // memos when the outermost operation returns and folds the sequential
  // context's counter tally into the manager's (parallel contexts merge
  // at EndParallelRegion instead).
  void EnterOp(const char* op) {
    thread_check_.Check();
    CheckOutsideRegion(op);
    ++op_depth_;
  }
  void LeaveOp() {
    if (--op_depth_ == 0) {
      apply_memo_.Reset();
      ctxs_[0].nary_memo.clear();
      AddCounters(ctxs_[0].counters);
      ctxs_[0].counters = PerfCounters{};
    }
  }
  void EnsureCtxSlots(size_t n) {
    while (ctxs_.size() < n) {
      ctxs_.emplace_back();
      ctxs_.back().element_arena.SetMemAccount(mem_account_);
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
  // their id is created. Negations are linked only by single-owner
  // operations, so region workers never race on the negation field.
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

  // ManagerCore hooks. A freed slot reads as a constant with var ==
  // kDeadVar until its id is recycled (real constants are ids 0 and 1,
  // live literals have var >= 0). Only decisions are hash-consed;
  // literals are interned in literal_ids_.
  friend class ManagerCore<SddManager>;
  static constexpr int kDeadVar = -2;
  bool IsDeadSlot(NodeId id) const {
    return nodes_[id].kind == Kind::kConst && nodes_[id].var == kDeadVar;
  }
  bool IsUniqueKeyed(NodeId id) const {
    return nodes_[id].kind == Kind::kDecision;
  }
  uint64_t UniqueHash(NodeId id) const {
    return DecisionHash(nodes_[id].vnode, elements(id));
  }
  // Donates a decision's element span to free_elements_, then dead-marks.
  void KillSlot(NodeId id);
  void MarkSlotDead(NodeId id) {
    nodes_[id] = {Kind::kConst, false, kDeadVar, -1, nullptr, 0};
    fast_info_[id] = {-1, -1, 0};
  }
  template <class F>
  void ForEachChild(NodeId id, F&& f) const {
    for (const auto& [p, s] : elements(id)) {
      f(p);
      f(s);
    }
  }
  void ResetLeases() {
    for (Ctx& cx : ctxs_) cx.budget_lease = 0;
  }
  void AccountStructures(MemAccount* account);
  void CheckOutsideRegion(const char* what) const {
    CTSDD_CHECK(!par_active_) << what << " inside a parallel region";
  }

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
  // Small-scope semantic layer (see SmallAnchor): per-vtree-node anchors
  // and masks plus the (anchor, word) -> canonical node cache.
  std::vector<int> anchor_of_vnode_;
  std::vector<uint64_t> anchor_mask_of_vnode_;
  ComputedCache<SemKey, NodeId> sem_cache_;
  PerfCounters counters_;
  // Execution contexts: ctxs_[0] is the single-owner context; parallel
  // regions use ctxs_[1 + slot]. A deque keeps references stable while
  // EnsureCtxSlots appends.
  std::deque<Ctx> ctxs_;
  bool par_active_ = false;
  // Guards free_ids_ inside parallel regions only (AllocNodePar refills
  // context batches from it); single-owner access outside regions stays
  // lock-free, ordered by the region bracket.
  SpinLock free_ids_lock_;
  // Size-bucketed element spans of freed decisions. Spans are arena-
  // backed and never return to the allocator, but exact-size reuse bounds
  // the arenas at their live + recycled high-water mark.
  std::unordered_map<size_t, std::vector<Element*>> free_elements_;
};

}  // namespace ctsdd

#endif  // CTSDD_SDD_SDD_H_
