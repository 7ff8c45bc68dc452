// A reduced ordered binary decision diagram (OBDD) package with a shared
// unique table, apply/ite with memoization, model counting, and weighted
// model counting (the probability computation of Section 1).
//
// OBDDs are the linear-vtree special case of SDDs (Section 3.2.2); the
// paper measures functions by OBDD *width* — the largest number of nodes
// labeled by the same variable — which this package reports alongside size.
//
// Storage follows the classic BDD-package layout: nodes live in a chunked
// stable-address store indexed by dense ids (util/node_store.h),
// hash-consed through an open-addressed unique table
// (util/unique_table.h); operation results are memoized in bounded
// computed caches (util/computed_cache.h) that stay fixed-size no matter
// how long the operation sequence runs. Cache eviction can only cost
// recomputation, never change results — canonicity lives in the unique
// table alone.
//
// Every operation runs sequentially on the owning thread. An attached
// exec/ pool only parallelizes the GC mark: forking Ite/AndN/OrN cofactor
// branches across workers lost to the sequential sweep on nearly every
// measured workload, by up to 10x on narrow diagrams (src/README.md, "The
// parallel runtime"), so the manager has no parallel apply path.

#ifndef CTSDD_OBDD_OBDD_H_
#define CTSDD_OBDD_OBDD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/task_pool.h"
#include "util/budget.h"
#include "util/computed_cache.h"
#include "util/logging.h"
#include "util/mem_governor.h"
#include "util/node_store.h"
#include "util/scoped_memo.h"
#include "util/status.h"
#include "util/thread_check.h"
#include "util/unique_table.h"

namespace ctsdd {

// Computed-cache bounds (maximum slot counts; rounded up to powers of
// two — the caches start small and grow under eviction pressure up to the
// bound). Small bounds force eviction and recomputation but never wrong
// results; the apply-core tests exercise exactly that. Namespace-scope
// (not nested) so it can serve as a defaulted constructor argument.
struct ObddOptions {
  size_t ite_cache_slots = 1 << 22;
  size_t nary_cache_slots = 1 << 18;
};

class ObddManager {
 public:
  // Node ids: 0 = false terminal, 1 = true terminal, >= 2 internal.
  // kAborted is the cooperative-abort sentinel: when an attached
  // WorkBudget trips, operations unwind by returning it instead of a
  // node. It is never stored in the unique table, caches, or memos, so
  // an aborted operation leaves no trace beyond unreferenced garbage
  // nodes (reclaimed by the next GarbageCollect).
  using NodeId = int;
  static constexpr NodeId kFalse = 0;
  static constexpr NodeId kTrue = 1;
  static constexpr NodeId kAborted = -2;

  using Options = ObddOptions;

  // `var_order[i]` is the global variable id tested at level i.
  explicit ObddManager(std::vector<int> var_order, Options options = {});

  const std::vector<int>& var_order() const { return var_order_; }
  int num_levels() const { return static_cast<int>(var_order_.size()); }
  // Level of a global variable id; -1 if not in the order.
  int LevelOf(int var) const;

  NodeId False() const { return kFalse; }
  NodeId True() const { return kTrue; }
  NodeId Literal(int var, bool positive);

  NodeId Not(NodeId f);
  NodeId And(NodeId f, NodeId g);
  NodeId Or(NodeId f, NodeId g);
  NodeId Xor(NodeId f, NodeId g);
  NodeId Ite(NodeId f, NodeId g, NodeId h);

  // Multi-way conjunction/disjunction by simultaneous cofactoring: all
  // operands are cofactored on the smallest live level at once, so a wide
  // gate costs one sweep instead of a chain of binary applies that re-walks
  // the accumulated result per operand. Neutral operands are dropped and
  // absorbing terminals short-circuit before any recursion.
  NodeId AndN(std::vector<NodeId> ops);
  NodeId OrN(std::vector<NodeId> ops);

  // Hash-conses the node (level, lo, hi), applying the reduction rule
  // (lo == hi collapses). Both children must already be normalized at
  // deeper levels — the caller asserts the ordering invariant, as in the
  // classic bdd_makenode interface. Compilers that Shannon-expand along
  // the variable order use this to sidestep a full Ite per node.
  NodeId MakeNode(int level, NodeId lo, NodeId hi);

  // Shannon cofactors of f by the level-`level` variable.
  NodeId CofactorLo(NodeId f, int level) const;
  NodeId CofactorHi(NodeId f, int level) const;

  // Restricts f by var := value.
  NodeId Restrict(NodeId f, int var, bool value);

  bool Evaluate(NodeId f, const std::vector<bool>& values_by_level) const;

  // Number of models over the full variable order.
  uint64_t CountModels(NodeId f) const;

  // Probability of f when variable at level i is independently true with
  // probability prob_by_level[i].
  double WeightedModelCount(NodeId f,
                            const std::vector<double>& prob_by_level) const;

  // Reachable node count, terminals excluded.
  int Size(NodeId f) const;

  // Max number of reachable nodes on a single level (OBDD width).
  int Width(NodeId f) const;

  // Nodes per level, for profile plots.
  std::vector<int> LevelProfile(NodeId f) const;

  // Total node slots ever created (manager footprint high-water mark).
  int NumNodes() const { return static_cast<int>(nodes_.size()); }
  // Nodes currently resident (slots minus the GC free list), terminals
  // included. This is the quantity a long-running service bounds.
  int NumLiveNodes() const {
    return static_cast<int>(nodes_.size() - free_ids_.size());
  }

  // --- Executor -----------------------------------------------------------
  //
  // AttachExecutor lends the manager a work-stealing pool. GarbageCollect
  // marks from the registered roots as pool tasks; operations ignore the
  // pool and run sequentially.

  void AttachExecutor(exec::TaskPool* pool) { pool_ = pool; }
  exec::TaskPool* executor() const { return pool_; }

  // --- Budgets and cancellation ------------------------------------------
  //
  // While a budget is attached, every operation that allocates nodes
  // (Ite/AndN/OrN/MakeNode and the compilers built on them) charges the
  // budget per node allocation (amortized through leases) and unwinds
  // with kAborted once it trips — on node exhaustion, on deadline, or on
  // an external Cancel(). The abort is cooperative and
  // exception-free: recursions observe a negative operand or the tripped
  // flag and return kAborted without touching the unique table or
  // caches, so the manager stays Validate()-clean and a post-abort
  // recompile (after detaching or refreshing the budget) is
  // pointer-identical by canonicity. Attach/Detach must happen outside
  // operations. With no budget attached the hot path pays a single
  // predictable branch.

  void AttachBudget(WorkBudget* budget);
  void DetachBudget() { AttachBudget(nullptr); }
  WorkBudget* budget() const { return budget_; }
  bool AbortRequested() const {
    return budget_ != nullptr && budget_->tripped();
  }

  // Structural self-check: every live node is reduced (lo != hi), level-
  // ordered, reachable children are live, and the unique table maps each
  // live node to itself (no duplicates, no strays). Used by tests to
  // assert aborted operations left the manager consistent. O(nodes).
  Status Validate() const;

  // --- Memory accounting --------------------------------------------------
  //
  // AttachMemAccount charges every byte-owning structure (node store,
  // unique table, computed caches, per-operation memos) to `account`,
  // transferring the already-resident bytes; pass nullptr to detach.
  // When the account chains to an enabled MemGovernor AND a budget is
  // attached, the budget-lease refill seams become enforcement points:
  // a refill whose worst-case allocation burst no longer fits under the
  // hard watermark trips the budget typed RESOURCE_EXHAUSTED with the
  // memory-pressure marker *before* allocating, so accounted bytes never
  // cross the ceiling. Attach outside operations.

  void AttachMemAccount(MemAccount* account);
  MemAccount* mem_account() const { return mem_account_; }
  // Recomputed accounted-resident bytes across all instrumented
  // structures; equals mem_account()->bytes() at quiescent points
  // (debug-asserted at the end of every GarbageCollect).
  size_t MemoryBytes() const {
    return nodes_.MemoryBytes() + unique_.MemoryBytes() +
           ite_cache_.MemoryBytes() + nary_cache_.MemoryBytes() +
           ite_memo_.MemoryBytes() + nary_memo_.MemoryBytes();
  }

  // --- Memory lifecycle -------------------------------------------------
  //
  // The manager never frees nodes on its own: canonicity requires every
  // reachable node to stay in the unique table, and the manager cannot
  // see which ids a caller still holds. Callers that want collection
  // register the roots they care about; GarbageCollect() then marks from
  // the registered roots (plus the terminals), sweeps every unreachable
  // internal node onto a free list for MakeNode to reuse, and rebuilds
  // the unique table over the survivors. Live node ids never change, so
  // held NodeIds of protected roots (and anything they reach) stay valid,
  // and recompiling a collected function reproduces pointer-identical ids
  // for every surviving subgraph (canonicity is preserved — the tests pin
  // this down). The computed caches are invalidated (freed ids may be
  // reused) but that only costs recomputation.

  // Registers `id` as an external root (ref-counted: k calls require k
  // releases). Terminals need no protection.
  void AddRootRef(NodeId id);
  // Drops one reference added by AddRootRef.
  void ReleaseRootRef(NodeId id);

  // Mark-from-roots collection; returns the number of nodes reclaimed.
  // Must not be called from inside an operation (apply depth 0).
  size_t GarbageCollect();

  // Returns the computed caches and per-operation memos to their initial
  // footprint (contents dropped — only recomputation cost). Pair with
  // GarbageCollect() when a service wants a manager back to baseline.
  void ShrinkCaches();

  struct GcStats {
    uint64_t runs = 0;       // GarbageCollect() invocations
    uint64_t reclaimed = 0;  // nodes freed across all runs
  };
  const GcStats& gc_stats() const { return gc_stats_; }

  // Releases thread-affinity (debug builds assert single-threaded use);
  // the next operation binds the manager to its calling thread.
  void DetachOwningThread() { thread_check_.Detach(); }

  struct Node {
    int level;  // index into var_order_
    NodeId lo;
    NodeId hi;
  };
  const Node& node(NodeId id) const { return nodes_[id]; }
  bool IsTerminal(NodeId id) const { return id <= 1; }

 private:
  // Two-level memoization, mirroring the SDD apply path: the bounded
  // global caches give cross-operation reuse; exact memos scoped to each
  // top-level operation preserve the polynomial recursion bound even when
  // the lossy caches evict (a lossy cache alone turns deep recursions
  // exponential once the live set outgrows it). Ite and ApplyN nest into
  // each other, so they share one depth counter and reset together when
  // the outermost operation returns.
  NodeId ApplyN(std::vector<NodeId> ops, bool is_and);
  // MakeNode without the owning-thread check, for the recursions.
  NodeId HashCons(int level, NodeId lo, NodeId hi);
  NodeId IteRec(NodeId f, NodeId g, NodeId h);
  NodeId ApplyNRec(std::vector<NodeId> ops, bool is_and);
  void LeaveOp() {
    if (--op_depth_ == 0) {
      ite_memo_.Reset();
      nary_memo_.Reset();
    }
  }

  struct IteKey {
    NodeId f = 0, g = 0, h = 0;
    bool operator==(const IteKey&) const = default;
  };
  struct NaryKey {
    bool is_and = false;
    std::vector<NodeId> ops;
    bool operator==(const NaryKey&) const = default;
  };

  // Budget charging, amortized via leases: the shared budget atomic is
  // touched once per lease_chunk_ allocations, not once per node.
  // Charge returns false when the budget denies the allocation (the
  // caller returns kAborted before allocating). The refill stays out of
  // line: AcquireLease (atomics, clock reads) inlined into HashCons
  // bloats the unbudgeted allocation fast path enough to measurably slow
  // the layered compilers.
  bool Charge() {
    if (budget_lease_ > 0) {
      --budget_lease_;
      return true;
    }
    return RefillLease();
  }
  bool RefillLease();
  // Deny-before-allocate gate at the lease seams: asks the governor for
  // headroom covering one lease's worst-case allocation burst (unique-
  // table doubling + memo growth + fresh chunks). Trips the budget with
  // the memory-pressure marker on denial.
  bool AdmitMemGrowth();

  std::vector<int> var_order_;
  std::unordered_map<int, int> level_of_var_;
  NodeStore<Node> nodes_;
  UniqueTable unique_;
  ComputedCache<IteKey, NodeId> ite_cache_;
  ComputedCache<NaryKey, NodeId> nary_cache_;
  ScopedMemo<IteKey, NodeId> ite_memo_;
  ScopedMemo<NaryKey, NodeId> nary_memo_;
  int op_depth_ = 0;
  exec::TaskPool* pool_ = nullptr;  // GC mark only (see AttachExecutor)
  // Attached budget (may be null) and the lease state.
  WorkBudget* budget_ = nullptr;
  uint32_t budget_lease_ = 0;
  uint32_t lease_chunk_ = 0;
  // Governor accounting (may be null). The governor pointer is resolved
  // once at attach so the refill seams pay loads, not a parent walk.
  // The slack term in the admission burst covers fixed-size mandatory
  // allocations a lease can trigger: node-store chunks, lazy memo-shard
  // arrays across all stripes, and the computed caches' floor arrays.
  static constexpr uint64_t kMemBurstSlack = 1u << 20;
  MemAccount* mem_account_ = nullptr;
  MemGovernor* mem_governor_ = nullptr;
  // GC state: external root ref-counts (indexed by node id, lazily grown)
  // and the free list MakeNode pops before growing nodes_. A freed slot's
  // level is set to kDeadLevel so stale-id use trips level checks fast.
  static constexpr int kDeadLevel = -2;
  std::vector<int32_t> external_refs_;
  std::vector<NodeId> free_ids_;
  GcStats gc_stats_;
  ThreadChecker thread_check_;
};

}  // namespace ctsdd

#endif  // CTSDD_OBDD_OBDD_H_
