// The lifecycle ObddManager and SddManager share: node ids and the abort
// sentinel, budget leases, memory accounting and admission, the borrowed
// executor, and thread ownership. Written once here; each manager keeps
// only its node layout, hash-consing key, caches and apply recursions.
//
// A manager is a compile arena: its node store only grows, and the
// manager lives for one compile (or one test). The serving layer builds a
// manager per cold compile, linearizes the root into a WmcTape and
// destroys the manager before answering, so nothing is ever collected:
// canonicity needs every node in the unique table, and dropping the whole
// manager is the only release.
//
// Node ids. 0 is the false terminal and 1 the true terminal. kAborted
// (-2) is the cooperative-abort sentinel (see Budgets); it is never
// stored in the unique table, a cache, a memo, or an SDD negation link.
//
// Budgets. While a WorkBudget is attached, every node allocation charges
// it through leases (one shared-atomic touch per lease_chunk_
// allocations), and every operation unwinds with kAborted once it trips:
// on node exhaustion, on deadline, or on Cancel(). The unwind caches,
// interns and links nothing, so the manager stays Validate()-clean, the
// partial nodes are unreferenced (they go with the manager), and a
// recompile after detaching or refreshing the budget is pointer-
// identical. With no budget attached the allocation path pays one
// predictable branch.
//
// Memory accounting. AttachMemAccount charges every byte-owning structure
// to the account, transferring the bytes already resident; nullptr
// detaches. The manager's MemoryBytes() recomputes the total, which
// equals mem_account()->bytes() at quiescent points: debug builds check
// it at every Attach* call, so each budgeted compile is checked before
// it starts and after it ends. When the account chains to an enabled
// MemGovernor and a budget is attached, each lease refill first asks the
// governor for the worst-case growth until the next refill; a denial
// trips the budget RESOURCE_EXHAUSTED with the memory-pressure marker
// before anything is allocated, so accounted bytes never cross the hard
// watermark.
//
// Threading. A manager is single-owner, with no exception: debug builds
// assert that every entry point runs on one thread. Attach* calls run
// outside operations. The SDD semantic compiler's pool workers compute
// partitions without touching the manager (sdd/sdd_compile.cc).
//
// ManagerCore<M> is a non-virtual CRTP base. M reaches it through a
// friend declaration and supplies:
//   nodes_                  its NodeStore
//   ForEachChild(id, f)     calls f on every child id
//   ResetLeases()           zeroes its lease counters
//   AccountStructures(a)    points its byte-owning structures at `a`
//   MemoryBytes()           recomputed accounted bytes

#ifndef CTSDD_UTIL_MANAGER_CORE_H_
#define CTSDD_UTIL_MANAGER_CORE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/task_pool.h"
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

  // Node slots created so far, terminals included. The store only grows,
  // so this is also the manager's peak.
  int NumNodes() const { return static_cast<int>(self().nodes_.size()); }

  // --- Executor -----------------------------------------------------------

  // Lends the manager a fork-join pool for the SDD semantic
  // compiler's partition planning. ObddManager never forks and ignores it.
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

  // Attach* calls run on the owning thread, outside every operation.
  // They are the manager's quiescent points, so debug builds check there
  // that the attached account agrees exactly with the recomputed
  // per-structure bytes.
  void CheckQuiescent(const char* what) const {
    thread_check_.Check();
    CTSDD_CHECK_EQ(op_depth_, 0) << what << " inside an operation";
#ifndef NDEBUG
    if (mem_account_ != nullptr) {
      CTSDD_CHECK_EQ(mem_account_->bytes(),
                     static_cast<uint64_t>(self().MemoryBytes()))
          << what << ": memory accounting drift";
    }
#endif
  }

  // Refills `*lease` (the caller's lease counter) from the attached
  // budget after the governor's admission check; false when either
  // denies. Kept out of line: inlined into the allocation fast path, the
  // refill (atomics, clock reads) measurably slowed the layered compilers.
  [[gnu::noinline]] bool RefillLease(uint32_t* lease) {
    if (!AdmitMemGrowth()) return false;
    *lease = static_cast<uint32_t>(budget_->AcquireLease(lease_chunk_));
    return *lease > 0;
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

  UniqueTable unique_;
  // Nesting depth of the running operation; Attach* calls need 0.
  int op_depth_ = 0;
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
  // denial.
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
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_MANAGER_CORE_H_
