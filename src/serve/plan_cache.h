// Bounded LRU cache of compiled query plans.
//
// A plan is the reusable product of one (query, database, strategy)
// compilation: the rooted OBDD or SDD lineage inside a pooled manager,
// pinned against garbage collection via the manager's external-root
// refs, its WMC tape (util/wmc_tape.h, linearized once at compile), and
// the variable list that maps request weights onto the tape's slots.
// Repeats — including weight-varied repeats — skip recompilation and
// the diagram entirely: they pay one forward loop over the tape.
//
// The cache is single-threaded (each shard owns one; see serve/shard.h)
// and capacity-bounded with LRU eviction. Eviction runs the owner's
// callback so the plan's root refs are released before the entry is
// destroyed — that is what turns an evicted plan's nodes into garbage
// the next collection can reclaim.
// The cache keeps no counters: its owner counts lookups and evictions in
// the service's metrics registry.

#ifndef CTSDD_SERVE_PLAN_CACHE_H_
#define CTSDD_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/query_compile.h"
#include "obdd/obdd.h"
#include "sdd/sdd.h"
#include "serve/plan_stats.h"
#include "util/hashing.h"
#include "util/mem_governor.h"
#include "util/wmc_tape.h"

namespace ctsdd {

// Which decision-diagram route a plan was compiled through.
enum class PlanRoute : uint8_t { kObdd, kSdd };

struct PlanKey {
  uint64_t query_sig = 0;
  uint64_t db_sig = 0;
  VtreeStrategy strategy = VtreeStrategy::kBalanced;
  PlanRoute route = PlanRoute::kSdd;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    return static_cast<size_t>(
        Hash3(k.query_sig, k.db_sig,
              (static_cast<uint64_t>(k.strategy) << 8) |
                  static_cast<uint64_t>(k.route)));
  }
};

struct CompiledPlan {
  PlanRoute route = PlanRoute::kSdd;
  // Exactly one manager pointer is set for non-constant lineages; the
  // pointed-to manager is owned by the shard's pool and outlives the
  // plan (plan eviction precedes manager eviction).
  ObddManager* obdd = nullptr;
  ObddManager::NodeId obdd_root = 0;
  SddManager* sdd = nullptr;
  SddManager::NodeId sdd_root = 0;
  // Sorted lineage variables (tuple ids); doubles as the OBDD order.
  std::vector<int> vars;
  // The lineage's probability as a tape whose weight slot i is vars[i]
  // (a constant tape for a variable-free lineage). Requests evaluate
  // only this; the manager and root stay for the GC pin and telemetry.
  WmcTape tape;
  // Compile-time statistics carried into responses.
  int lineage_gates = 0;
  int size = 0;
  int width = 0;
  // Nodes this plan pins in its manager while cached (reachable internal
  // OBDD nodes / SDD decision nodes from the pinned root). The GC policy
  // uses it to target eviction at the manager actually over its
  // resident-node ceiling instead of shedding in global LRU order.
  int pinned_nodes = 0;
  // Per-plan telemetry, shared with the PlanStatsRegistry live table so
  // the debug server reads it without touching this (single-threaded)
  // cache. Null only for plans built before telemetry wiring (tests).
  std::shared_ptr<PlanStats> stats;
};

class PlanCache {
 public:
  // `on_evict` runs for every entry leaving the cache (LRU pressure,
  // EvictOne, EraseIf) — the owner releases the plan's root refs there.
  using EvictFn = std::function<void(const PlanKey&, CompiledPlan&)>;

  // Capacity 0 is clamped to 1: Insert must return a resident plan for
  // the request being served, so "cache nothing" still holds the newest
  // entry (and silently-unbounded would defeat the subsystem).
  PlanCache(size_t capacity, EvictFn on_evict)
      : capacity_(capacity == 0 ? 1 : capacity),
        on_evict_(std::move(on_evict)) {}
  ~PlanCache() { EraseIf([](const CompiledPlan&) { return true; }); }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Attaches the governor account; entry overhead (the entry itself, the
  // plan's variable list and its tape) is charged under
  // MemLayer::kPlanCache at Insert and released at eviction. The pinned
  // diagram nodes themselves are store/arena bytes of the owning
  // manager's account, not counted here (no double-charging). Attach
  // before the first Insert.
  void SetMemAccount(MemAccount* account) { account_ = account; }

  size_t MemoryBytes() const { return charged_bytes_; }

  // Returns the cached plan (bumped to most-recently-used) or nullptr.
  // The pointer is valid until the next Insert/EvictOne/EraseIf.
  CompiledPlan* Lookup(const PlanKey& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &entries_.front().second;
  }

  // Inserts (the key must not be present — callers Lookup first) and
  // returns the resident plan, evicting LRU entries past capacity.
  CompiledPlan* Insert(const PlanKey& key, CompiledPlan plan) {
    while (entries_.size() >= capacity_) EvictOne();
    entries_.emplace_front(key, std::move(plan));
    index_.emplace(key, entries_.begin());
    ChargeEntry(entries_.front().second, +1);
    return &entries_.front().second;
  }

  // Evicts the least-recently-used entry; false when empty. Shards call
  // this under GC pressure, when pinned plans alone exceed the
  // resident-node ceiling.
  bool EvictOne() {
    if (entries_.empty()) return false;
    auto& [key, plan] = entries_.back();
    if (on_evict_) on_evict_(key, plan);
    ChargeEntry(plan, -1);
    index_.erase(key);
    entries_.pop_back();
    return true;
  }

  // Evicts the least-recently-used entry for which `pred` holds; false
  // when none matches. The GC policy uses this to shed plans pinned in
  // the one manager over its resident-node ceiling, preserving every
  // other manager's cached plans (LRU order still decides *which* of the
  // matching plans goes).
  template <typename Pred>
  bool EvictOneMatching(Pred&& pred) {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (!pred(static_cast<const CompiledPlan&>(it->second))) continue;
      if (on_evict_) on_evict_(it->first, it->second);
      ChargeEntry(it->second, -1);
      index_.erase(it->first);
      entries_.erase(std::next(it).base());
      return true;
    }
    return false;
  }

  // Total pinned_nodes over cached plans for which `pred` holds — the
  // per-manager pinned-node accounting behind the eviction policy.
  template <typename Pred>
  int PinnedNodesMatching(Pred&& pred) const {
    int total = 0;
    for (const auto& [key, plan] : entries_) {
      if (pred(static_cast<const CompiledPlan&>(plan))) {
        total += plan.pinned_nodes;
      }
    }
    return total;
  }

  // Evicts every plan for which `pred` holds (e.g. all plans inside a
  // manager about to be destroyed).
  template <typename Pred>
  void EraseIf(Pred&& pred) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!pred(static_cast<const CompiledPlan&>(it->second))) {
        ++it;
        continue;
      }
      if (on_evict_) on_evict_(it->first, it->second);
      ChargeEntry(it->second, -1);
      index_.erase(it->first);
      it = entries_.erase(it);
    }
  }

  size_t size() const { return entries_.size(); }

 private:
  // Heap overhead of one cached entry: the list node payload, the plan's
  // variable list, its WMC tape (the one per-plan structure that grows
  // with the diagram: 8 bytes per element plus 4 per decision) and its
  // stats block (dominated by the inline histogram). Computed
  // identically at insert and evict (the plan, tape and stats pointer
  // are immutable while cached), so charges round-trip exactly.
  static size_t EntryBytes(const CompiledPlan& plan) {
    return sizeof(std::pair<PlanKey, CompiledPlan>) +
           plan.vars.capacity() * sizeof(int) + plan.tape.MemoryBytes() +
           (plan.stats != nullptr ? sizeof(PlanStats) : 0);
  }

  void ChargeEntry(const CompiledPlan& plan, int sign) {
    const size_t bytes = EntryBytes(plan);
    if (sign > 0) {
      charged_bytes_ += bytes;
    } else {
      charged_bytes_ -= bytes;
    }
    if (account_ != nullptr) {
      account_->Charge(MemLayer::kPlanCache,
                       sign * static_cast<int64_t>(bytes));
    }
  }

  size_t capacity_;
  EvictFn on_evict_;
  MemAccount* account_ = nullptr;
  size_t charged_bytes_ = 0;
  // MRU-first entry list + key index (classic LRU layout; list iterators
  // stay valid across splice, so the index never goes stale).
  std::list<std::pair<PlanKey, CompiledPlan>> entries_;
  std::unordered_map<PlanKey, decltype(entries_)::iterator, PlanKeyHash>
      index_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_PLAN_CACHE_H_
