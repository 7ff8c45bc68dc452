// The lifecycle ObddManager and SddManager share: node ids and the abort
// sentinel, external roots, mark-from-roots garbage collection, budget
// leases, memory accounting and admission, the borrowed executor, and
// thread ownership. Written once here; each manager keeps only its node
// layout, hash-consing key, caches and apply recursions.
//
// Node ids. 0 is the false terminal and 1 the true terminal, both
// permanent. kAborted (-2) is the cooperative-abort sentinel (see
// Budgets); it is never stored in the unique table, a cache, a memo, or
// an SDD negation link.
//
// Roots and collection. A manager never frees nodes on its own:
// canonicity needs every reachable node in the unique table, and the
// manager cannot see which ids a caller still holds. Callers register the
// roots they keep with AddRootRef, ref-counted (k adds need k releases;
// terminals, and SDD literals, are permanent and need none).
// GarbageCollect() marks from those roots, sweeps every unreachable node
// onto a free list that allocation pops before growing the store, and
// rebuilds the unique table over the survivors. Live ids never change, so
// held ids of protected roots stay valid, and recompiling a collected
// function reproduces pointer-identical ids for every surviving subgraph.
// The computed caches are cleared (freed ids may be reused), which only
// costs recomputation. With a parallel pool attached the mark runs one
// DFS per root as pool tasks; the marked set, and so everything after it,
// equals the sequential mark's.
//
// Budgets. While a WorkBudget is attached, every node allocation charges
// it through leases (one shared-atomic touch per lease_chunk_
// allocations), and every operation unwinds with kAborted once it trips:
// on node exhaustion, on deadline, or on Cancel(). The unwind caches,
// interns and links nothing, so the manager stays Validate()-clean, the
// partial nodes are unreferenced garbage for the next collection, and a
// recompile after detaching or refreshing the budget is pointer-
// identical. With no budget attached the allocation path pays one
// predictable branch.
//
// Memory accounting. AttachMemAccount charges every byte-owning structure
// to the account, transferring the bytes already resident; nullptr
// detaches. The manager's MemoryBytes() recomputes the total, which
// equals mem_account()->bytes() at quiescent points (debug-checked at the
// end of every collection). When the account chains to an enabled
// MemGovernor and a budget is attached, each lease refill first asks the
// governor for the worst-case growth until the next refill; a denial
// trips the budget RESOURCE_EXHAUSTED with the memory-pressure marker
// before anything is allocated, so accounted bytes never cross the hard
// watermark.
//
// Threading. A manager is single-owner: debug builds assert that every
// entry point runs on one thread. Attach*, GarbageCollect and ShrinkCaches
// run outside operations (and outside SDD parallel regions).
//
// ManagerCore<M> is a non-virtual CRTP base. M reaches it through a
// friend declaration and supplies:
//   nodes_                  its NodeStore
//   IsDeadSlot(id)          the slot is on the free list
//   UniqueHash(id)          the unique-table hash of a live, keyed slot
//   KillSlot(id)            dead-marks an unreachable slot
//   ForEachChild(id, f)     calls f on every child id
//   ResetLeases()           zeroes its lease counters
//   AccountStructures(a)    points its byte-owning structures at `a`
//   MemoryBytes()           recomputed accounted bytes
// and may shadow IsUniqueKeyed (default: every live slot is keyed) and
// CheckOutsideRegion (default: no regions).

#ifndef CTSDD_UTIL_MANAGER_CORE_H_
#define CTSDD_UTIL_MANAGER_CORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "exec/task_pool.h"
#include "obs/trace.h"
#include "util/budget.h"
#include "util/logging.h"
#include "util/mem_governor.h"
#include "util/status.h"
#include "util/thread_check.h"
#include "util/unique_table.h"
#include "util/wmc_tape.h"

namespace ctsdd {

template <class Manager>
class ManagerCore {
 public:
  using NodeId = int;
  static constexpr NodeId kFalse = 0;
  static constexpr NodeId kTrue = 1;
  static constexpr NodeId kAborted = -2;

  NodeId False() const { return kFalse; }
  NodeId True() const { return kTrue; }

  // --- Roots and collection ---------------------------------------------

  // Registers `id` as an external root. Terminals need no protection.
  void AddRootRef(NodeId id) {
    thread_check_.Check();
    if (id <= kTrue) return;
    const size_t slots = self().nodes_.size();
    CTSDD_CHECK(static_cast<size_t>(id) < slots && !self().IsDeadSlot(id))
        << "AddRootRef on a freed node";
    if (external_refs_.size() < slots) external_refs_.resize(slots, 0);
    ++external_refs_[id];
  }
  // Drops one reference added by AddRootRef.
  void ReleaseRootRef(NodeId id) {
    thread_check_.Check();
    if (id <= kTrue) return;
    CTSDD_CHECK(static_cast<size_t>(id) < external_refs_.size() &&
                external_refs_[id] > 0)
        << "ReleaseRootRef without a matching AddRootRef";
    --external_refs_[id];
  }

  // Total node slots ever created (the footprint high-water mark).
  int NumNodes() const { return static_cast<int>(self().nodes_.size()); }
  // Nodes currently resident (slots minus the free list), terminals
  // included. The quantity a long-running service bounds.
  int NumLiveNodes() const {
    return static_cast<int>(self().nodes_.size() - free_ids_.size());
  }

  struct GcStats {
    uint64_t runs = 0;       // GarbageCollect() invocations
    uint64_t reclaimed = 0;  // nodes freed across all runs
  };
  const GcStats& gc_stats() const { return gc_stats_; }

  // --- Executor -----------------------------------------------------------

  // Lends the manager a work-stealing pool for the GC mark (and, in the
  // SDD manager, the semantic compiler's parallel region).
  void AttachExecutor(exec::TaskPool* pool) { pool_ = pool; }
  exec::TaskPool* executor() const { return pool_; }

  // --- Budgets ------------------------------------------------------------

  void AttachBudget(WorkBudget* budget) {
    CheckQuiescent("AttachBudget");
    budget_ = budget;
    lease_chunk_ = 0;
    self().ResetLeases();
    if (budget != nullptr) {
      // Lease granularity: fine enough that overshoot stays within the
      // acceptance bound (<= budget/16), coarse enough that the shared
      // atomic is off the per-node path.
      const uint64_t b = budget->node_budget();
      lease_chunk_ = static_cast<uint32_t>(
          b == 0 ? 256
                 : std::min<uint64_t>(256, std::max<uint64_t>(1, b / 16)));
    }
  }
  void DetachBudget() { AttachBudget(nullptr); }
  WorkBudget* budget() const { return budget_; }
  bool AbortRequested() const {
    return budget_ != nullptr && budget_->tripped();
  }

  // --- Memory accounting and ownership ------------------------------------

  void AttachMemAccount(MemAccount* account) {
    CheckQuiescent("AttachMemAccount");
    mem_account_ = account;
    // Resolved once here so the refill seams pay loads, not a parent walk.
    mem_governor_ = account != nullptr ? account->governor() : nullptr;
    unique_.SetMemAccount(account);
    self().AccountStructures(account);
  }
  MemAccount* mem_account() const { return mem_account_; }

 protected:
  Manager& self() { return static_cast<Manager&>(*this); }
  const Manager& self() const { return static_cast<const Manager&>(*this); }

  // Lifecycle calls (GC, Attach*, ShrinkCaches) run on the owning thread,
  // outside every operation and parallel region.
  void CheckQuiescent(const char* what) const {
    thread_check_.Check();
    CTSDD_CHECK_EQ(op_depth_, 0) << what << " inside an operation";
    self().CheckOutsideRegion(what);
  }
  void CheckOutsideRegion(const char*) const {}
  bool IsUniqueKeyed(NodeId) const { return true; }

  // Refills `*lease` (the caller's lease counter) from the attached
  // budget after the governor's admission check; false when either
  // denies. Kept out of line: inlined into the allocation fast path, the
  // refill (atomics, clock reads) measurably slowed the layered compilers.
  [[gnu::noinline]] bool RefillLease(uint32_t* lease) {
    if (!AdmitMemGrowth()) return false;
    *lease = static_cast<uint32_t>(budget_->AcquireLease(lease_chunk_));
    return *lease > 0;
  }

  // One collection: mark from `roots` plus the registered external roots,
  // sweep, run `after_sweep(marked)` (the manager's cache invalidation),
  // and account the run. `span_name` names the trace span.
  template <class AfterSweep>
  size_t Collect(const char* span_name, std::vector<NodeId> roots,
                 AfterSweep&& after_sweep) {
    CheckQuiescent("GC");
    obs::TraceSpan gc_span("gc", span_name);
    ++gc_stats_.runs;
    const std::vector<uint8_t> marked = Mark(std::move(roots));
    const size_t reclaimed = Sweep(marked);
    after_sweep(marked);
    gc_stats_.reclaimed += reclaimed;
#ifndef NDEBUG
    // GC is a quiescent point: the rolled-up account must agree with the
    // recomputed per-structure bytes exactly, or accounting has drifted.
    if (mem_account_ != nullptr) {
      CTSDD_CHECK_EQ(mem_account_->bytes(),
                     static_cast<uint64_t>(self().MemoryBytes()))
          << span_name << ": memory accounting drift after GC";
    }
#endif
    gc_span.AddArg("reclaimed", reclaimed);
    return reclaimed;
  }

  // Linearizes the diagram under `root` into a tape over `num_slots`
  // weight slots. `leaf_entry(id)` is the tape entry of a terminal (or
  // SDD literal) and -1 for a decision node; `emit(id, entry_of, tape)`
  // appends a decision node's elements, reading its children's entries
  // through `entry_of`. Each reachable decision node is emitted once,
  // after all of its children, by an iterative DFS (a deep OBDD cannot
  // overflow the stack) over a dense id -> entry index that also caches
  // leaf entries, so each node is classified once.
  template <class LeafEntry, class Emit>
  WmcTape Linearize(NodeId root, uint32_t num_slots,
                    const LeafEntry& leaf_entry, const Emit& emit) const {
    constexpr uint32_t kUnvisited = UINT32_MAX;
    constexpr uint32_t kOpen = UINT32_MAX - 1;  // children being emitted
    std::vector<uint32_t> entry(self().nodes_.size(), kUnvisited);
    // True when `u` is a decision not yet reached; a leaf gets its entry
    // on first sight instead.
    const auto unreached = [&](NodeId u) {
      if (entry[u] != kUnvisited) return false;
      const int64_t leaf = leaf_entry(u);
      if (leaf < 0) return true;
      entry[u] = static_cast<uint32_t>(leaf);
      return false;
    };
    const auto entry_of = [&](NodeId u) { return entry[u]; };
    WmcTape tape(num_slots);
    std::vector<NodeId> stack;
    if (unreached(root)) stack.push_back(root);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      if (entry[u] == kUnvisited) {
        entry[u] = kOpen;
        self().ForEachChild(u, [&](NodeId c) {
          if (unreached(c)) stack.push_back(c);
        });
        continue;
      }
      stack.pop_back();
      if (entry[u] != kOpen) continue;  // a second parent's copy
      emit(u, entry_of, &tape);
      entry[u] = tape.CloseDecision();
    }
    tape.Finish(entry[root]);
    return tape;
  }

  // Places `node` in a freed slot when one exists, else appends it.
  template <class Node>
  NodeId NewSlot(const Node& node) {
    if (free_ids_.empty()) {
      return static_cast<NodeId>(self().nodes_.PushBack(node));
    }
    const NodeId id = free_ids_.back();
    free_ids_.pop_back();
    self().nodes_[id] = node;
    return id;
  }

  // Validate() helper: every free-list id is an in-range dead slot and
  // every dead slot is on the free list. Fills `*dead` with the dead-slot
  // bitmap.
  Status ValidateFreeList(std::vector<bool>* dead) const {
    const size_t n = self().nodes_.size();
    dead->assign(n, false);
    for (const NodeId id : free_ids_) {
      if (id < 2 || static_cast<size_t>(id) >= n) {
        return Status::Internal("free-list id out of range");
      }
      if (!self().IsDeadSlot(id)) {
        return Status::Internal("free-list id not dead-marked");
      }
      (*dead)[id] = true;
    }
    for (size_t id = 2; id < n; ++id) {
      if (self().IsDeadSlot(static_cast<NodeId>(id)) && !(*dead)[id]) {
        return Status::Internal("dead node missing from the free list");
      }
    }
    return Status::Ok();
  }

  UniqueTable unique_;
  // Nesting depth of the running operation; lifecycle calls need 0.
  int op_depth_ = 0;
  // Freed ids, popped by allocation before the node store grows.
  std::vector<NodeId> free_ids_;
  exec::TaskPool* pool_ = nullptr;
  WorkBudget* budget_ = nullptr;  // may be null
  uint32_t lease_chunk_ = 0;      // allocations per lease
  MemAccount* mem_account_ = nullptr;
  MemGovernor* mem_governor_ = nullptr;
  ThreadChecker thread_check_;

 private:
  // Covers the fixed-size allocations a lease can trigger beyond the
  // doubling terms in AdmitMemGrowth: node-store and arena chunks.
  static constexpr uint64_t kMemBurstSlack = 1u << 20;

  // Deny-before-allocate gate at the lease seams: asks the governor for
  // headroom covering one lease's worst-case burst, which is the unique
  // table doubling, the memos doubling (their bytes come from the
  // account's atomic per-layer counter, not a walk), and fresh store and
  // arena chunks. Trips the budget with the memory-pressure marker on
  // denial. Safe from SDD region workers.
  bool AdmitMemGrowth() {
    if (mem_governor_ == nullptr || !mem_governor_->enabled()) return true;
    const uint64_t burst =
        2 * unique_.MemoryBytes() +
        static_cast<uint64_t>(mem_account_->bytes(MemLayer::kMemo)) +
        kMemBurstSlack;
    if (mem_governor_->AdmitProjected(burst)) return true;
    budget_->MarkMemoryPressure();
    budget_->Cancel(StatusCode::kResourceExhausted);
    return false;
  }

  std::vector<uint8_t> Mark(std::vector<NodeId> roots) const {
    const Manager& m = self();
    std::vector<uint8_t> marked(m.nodes_.size(), 0);
    marked[kFalse] = marked[kTrue] = 1;
    for (size_t id = 0; id < external_refs_.size(); ++id) {
      if (external_refs_[id] > 0) roots.push_back(static_cast<NodeId>(id));
    }
    if (pool_ != nullptr && pool_->parallel() && roots.size() > 1) {
      // One DFS per root as exec tasks: claiming a node with a relaxed
      // atomic exchange makes subgraphs shared between roots traverse
      // exactly once, and running on the shared pool lets a cold compile
      // on another shard overlap this pause instead of queueing behind it.
      exec::ParallelFor(pool_, roots.size(), [&](size_t i) {
        std::vector<NodeId> stack{roots[i]};
        while (!stack.empty()) {
          const NodeId u = stack.back();
          stack.pop_back();
          if (std::atomic_ref<uint8_t>(marked[u]).exchange(
                  1, std::memory_order_relaxed)) {
            continue;
          }
          m.ForEachChild(u, [&](NodeId c) { stack.push_back(c); });
        }
      });
    } else {
      std::vector<NodeId> stack = std::move(roots);
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        if (marked[u]) continue;
        marked[u] = 1;
        m.ForEachChild(u, [&](NodeId c) { stack.push_back(c); });
      }
    }
    return marked;
  }

  // Frees every unmarked slot onto the free list and rebuilds the unique
  // table over the keyed survivors (open addressing cannot delete in
  // place). Returns the number of slots freed.
  size_t Sweep(const std::vector<uint8_t>& marked) {
    Manager& m = self();
    const size_t n = m.nodes_.size();
    size_t live = 0;
    for (size_t id = 2; id < n; ++id) {
      if (marked[id] && m.IsUniqueKeyed(static_cast<NodeId>(id))) ++live;
    }
    unique_.Clear(live);
    size_t reclaimed = 0;
    for (size_t id = 2; id < n; ++id) {
      const NodeId u = static_cast<NodeId>(id);
      if (m.IsDeadSlot(u)) continue;  // already on the free list
      if (!marked[id]) {
        m.KillSlot(u);
        free_ids_.push_back(u);
        ++reclaimed;
      } else if (m.IsUniqueKeyed(u)) {
        unique_.Insert(m.UniqueHash(u), u);
      }
    }
    return reclaimed;
  }

  // External root ref-counts, indexed by node id and grown lazily.
  std::vector<int32_t> external_refs_;
  GcStats gc_stats_;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_MANAGER_CORE_H_
