// Process-wide memory governor: byte-accurate hierarchical accounting
// with watermark-tiered pressure response.
//
// The paper's size bounds are per-diagram promises; a serving process
// composing many shards, compile managers, plan caches, and computed caches
// has no aggregate guarantee — a burst of wide-but-under-budget compiles
// can still drive the process into the kernel OOM killer, the one
// failure a thread supervisor cannot restart its way out of. The
// governor closes that gap with two pieces:
//
//   - MemAccount: a node in an accounting tree (structure -> manager ->
//     shard -> governor). Instrumented containers (util/node_store.h,
//     util/arena.h, util/computed_cache.h, util/scoped_memo.h,
//     util/unique_table.h, serve/plan_cache.h) charge byte deltas at
//     their existing allocation seams — chunk claims, span chunks, slot
//     array growth, table rebuilds — so charges are inherently amortized
//     to chunk granularity: a handful of relaxed fetch_adds per ~16KB
//     allocated, never per node. Every charge propagates up the parent
//     chain; the account a governor is attached to feeds the process
//     total.
//   - MemGovernor: soft/hard watermarks over the process total and the
//     pressure machinery serving needs: a tier snapshot (None / Soft /
//     Critical) that drives the serve-layer response (deny optional
//     cache growth, evict plans, reject cold compiles typed
//     RESOURCE_EXHAUSTED), deny-before-allocate admission
//     (`AdmitProjected`) consulted at the managers' budget-lease refill
//     seams so a compile that cannot fit its worst-case allocation burst
//     trips *before* allocating — the hard ceiling is never crossed —
//     and a registry of in-flight compiles so the governor can cancel
//     the largest one (`WorkBudget::Cancel(kResourceExhausted)`) when
//     denial alone cannot relieve pressure.
//
// Exactness contract: at every quiescent point (a manager's Attach*
// calls, which bracket every budgeted compile; a plan eviction's end),
// an account's bytes() equals the owning structures' recomputed
// MemoryBytes() sums — debug-asserted by the managers and pinned by the
// randomized round-trip tests. Shedding (plan eviction, denied cache
// growth) preserves exactness and pointer-identical recompiles.
//
// Fault site: `mem.reserve` (coarse, always compiled) fires on every
// governed reservation; an armed action may call
// MemGovernor::FailNextReservationOnCurrentThread() to inject a
// byte-level reservation failure into release chaos streams.
//
// Thread-safety: accounts are charged from any thread (relaxed atomics);
// parent links and governor attachment are set while quiescent. The
// governor's queries and counters are lock-free; the compile registry
// takes a small mutex on register/unregister/cancel (compile-granular).

#ifndef CTSDD_UTIL_MEM_GOVERNOR_H_
#define CTSDD_UTIL_MEM_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace ctsdd {

class WorkBudget;
class MemGovernor;

// Accounting layers, reported per-layer in serve stats. kPlanCache covers
// the serve-layer plan entries: each plan's entry, variable list and WMC
// tape (a plan holds no diagram nodes).
enum class MemLayer : int {
  kNodeStore = 0,
  kArena = 1,
  kUniqueTable = 2,
  kCache = 3,
  kMemo = 4,
  kPlanCache = 5,
};
inline constexpr int kMemLayerCount = 6;

class MemAccount {
 public:
  MemAccount() = default;
  explicit MemAccount(MemAccount* parent) : parent_(parent) {}
  MemAccount(const MemAccount&) = delete;
  MemAccount& operator=(const MemAccount&) = delete;

  // Structural edits; perform while no charges are in flight.
  void SetParent(MemAccount* parent) { parent_ = parent; }
  void SetGovernor(MemGovernor* governor) { governor_ = governor; }
  MemGovernor* governor() const {
    for (const MemAccount* a = this; a != nullptr; a = a->parent_) {
      if (a->governor_ != nullptr) return a->governor_;
    }
    return nullptr;
  }

  // Charges `delta` bytes (negative to release) against this account and
  // every ancestor; the attached governor (if any, at any level) sees
  // the process-total update.
  void Charge(MemLayer layer, int64_t delta);

  uint64_t bytes() const {
    const int64_t v = total_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }
  uint64_t bytes(MemLayer layer) const {
    const int64_t v =
        layers_[static_cast<int>(layer)].load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }

 private:
  MemAccount* parent_ = nullptr;
  MemGovernor* governor_ = nullptr;
  std::atomic<int64_t> total_{0};
  std::atomic<int64_t> layers_[kMemLayerCount] = {};
};

class MemGovernor {
 public:
  // Pressure tiers over the process total. The serve-layer response
  // response keys off these: at kSoft optional cache growth is denied;
  // at kCritical shards also evict plans, and admission rejects
  // cold compiles typed RESOURCE_EXHAUSTED with a retry hint. The hard
  // ceiling itself is enforced by deny-before-allocate at the lease
  // seams plus cancel-largest — tiers only decide how aggressively to
  // get *out* of pressure.
  enum class Tier : int { kNone = 0, kSoft = 1, kCritical = 2 };

  MemGovernor() = default;
  ~MemGovernor();
  MemGovernor(const MemGovernor&) = delete;
  MemGovernor& operator=(const MemGovernor&) = delete;

  // Process-wide instance (created on first use, never destroyed).
  // Serving embeds its own instance per QueryService so tests stay
  // isolated; standalone tools that want one governor across every
  // manager use this.
  static MemGovernor* Process();

  // hard = 0 disables enforcement (accounting still flows). soft = 0
  // derives soft as 3/4 of hard. Set before traffic flows.
  void SetWatermarks(uint64_t soft_bytes, uint64_t hard_bytes);

  bool enabled() const {
    return hard_.load(std::memory_order_relaxed) > 0;
  }
  uint64_t soft_bytes() const {
    return soft_.load(std::memory_order_relaxed);
  }
  uint64_t hard_bytes() const {
    return hard_.load(std::memory_order_relaxed);
  }
  uint64_t bytes() const {
    const int64_t v = bytes_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }
  uint64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

  Tier tier() const;

  // Deny-before-allocate: true iff `projected_bytes` more would still
  // fit under the hard ceiling. Consulted at the managers' lease-refill
  // seams with a worst-case burst estimate; a denial is final for that
  // compile (the caller trips its budget typed RESOURCE_EXHAUSTED with
  // the memory-pressure marker) and cancels the largest registered
  // in-flight compile so pressure actually falls. Hits the
  // `mem.reserve` fault site.
  bool AdmitProjected(uint64_t projected_bytes);

  // True iff a *discretionary* allocation (computed-cache doubling) may
  // proceed: denied at or above the soft watermark. Mandatory growth
  // (unique-table doubling, memo growth) is never denied — it is covered
  // by the admission burst margin instead.
  bool AllowOptionalGrowth(uint64_t growth_bytes);

  // In-flight compile registry for cancel-largest. `account` is the
  // compiling manager's account (its bytes rank the compile).
  void RegisterCompile(WorkBudget* budget, const MemAccount* account);
  void UnregisterCompile(WorkBudget* budget);

  // Cancels the largest registered un-tripped compile, marking its
  // budget memory-pressured. Returns true if one was cancelled.
  bool CancelLargestCompile();

  // Arms a one-shot injected reservation failure on the calling thread:
  // the next AdmitProjected on this thread denies. Designed as the
  // action of a `mem.reserve` fault spec.
  static void FailNextReservationOnCurrentThread();

  // Called by accounts on every charge that reaches this governor.
  void OnCharge(int64_t delta);

  // Monotone counters (process lifetime).
  uint64_t admit_denials() const {
    return admit_denials_.load(std::memory_order_relaxed);
  }
  uint64_t optional_growth_denials() const {
    return optional_growth_denials_.load(std::memory_order_relaxed);
  }
  uint64_t compile_cancels() const {
    return compile_cancels_.load(std::memory_order_relaxed);
  }
  uint64_t injected_denials() const {
    return injected_denials_.load(std::memory_order_relaxed);
  }
  // Entries into the soft / critical tier (rising edges only).
  uint64_t soft_transitions() const {
    return soft_transitions_.load(std::memory_order_relaxed);
  }
  uint64_t critical_transitions() const {
    return critical_transitions_.load(std::memory_order_relaxed);
  }
  // Belt-and-braces: charges observed to land above the hard ceiling.
  // Zero by construction when every allocating path reserves first; the
  // bench and tests gate on it.
  uint64_t hard_breaches() const {
    return hard_breaches_.load(std::memory_order_relaxed);
  }

 private:
  struct CompileReg {
    WorkBudget* budget;
    const MemAccount* account;
  };

  std::atomic<uint64_t> soft_{0};
  std::atomic<uint64_t> hard_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<int> tier_{0};

  std::atomic<uint64_t> admit_denials_{0};
  std::atomic<uint64_t> optional_growth_denials_{0};
  std::atomic<uint64_t> compile_cancels_{0};
  std::atomic<uint64_t> injected_denials_{0};
  std::atomic<uint64_t> soft_transitions_{0};
  std::atomic<uint64_t> critical_transitions_{0};
  std::atomic<uint64_t> hard_breaches_{0};

  // Compile registry; small (one entry per in-flight compile).
  struct Registry;
  Registry& registry();
  std::atomic<Registry*> registry_{nullptr};
};

inline void MemAccount::Charge(MemLayer layer, int64_t delta) {
  if (delta == 0) return;
  for (MemAccount* a = this; a != nullptr; a = a->parent_) {
    a->layers_[static_cast<int>(layer)].fetch_add(
        delta, std::memory_order_relaxed);
    a->total_.fetch_add(delta, std::memory_order_relaxed);
    if (a->governor_ != nullptr) a->governor_->OnCharge(delta);
  }
}

}  // namespace ctsdd

#endif  // CTSDD_UTIL_MEM_GOVERNOR_H_
