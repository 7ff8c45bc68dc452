// Bounded LRU cache of compiled query plans.
//
// A plan is the reusable product of one (query, database, route)
// compilation, and it is a tape, not a diagram: the lineage's WMC tape
// (util/wmc_tape.h, linearized once at compile), the variable list that
// maps request weights onto the tape's slots, and the compile's shape
// statistics. The diagram it was linearized from is destroyed with its
// manager as soon as the tape exists — a plan holds no manager pointer
// and no root, and a shard keeps no manager between requests.
// Repeats, weight-varied ones included, pay one forward loop over the
// tape. The key names no vtree: an SDD plan's vtree is a function of its
// lineage (VtreeForLineage), so one key has one plan.
//
// The cache is single-threaded (each shard owns one; see serve/shard.h)
// and capacity-bounded with LRU eviction. Eviction runs the owner's
// callback before the entry is destroyed (telemetry hand-off). The cache
// keeps no counters: its owner counts lookups and evictions in the
// service's metrics registry.

#ifndef CTSDD_SERVE_PLAN_CACHE_H_
#define CTSDD_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

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
  PlanRoute route = PlanRoute::kSdd;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    return static_cast<size_t>(
        Hash3(k.query_sig, k.db_sig, static_cast<uint64_t>(k.route)));
  }
};

struct CompiledPlan {
  PlanRoute route = PlanRoute::kSdd;
  // Sorted lineage variables (tuple ids); doubles as the OBDD order.
  std::vector<int> vars;
  // The lineage's probability as a tape whose weight slot i is vars[i]
  // (a constant tape for a variable-free lineage). Requests evaluate
  // only this.
  WmcTape tape;
  // Compile-time statistics carried into responses.
  int lineage_gates = 0;
  int size = 0;
  int width = 0;
  // Per-plan telemetry, shared with the PlanStatsRegistry live table so
  // the debug server reads it without touching this (single-threaded)
  // cache. Null only for plans built before telemetry wiring (tests).
  std::shared_ptr<PlanStats> stats;
};

class PlanCache {
 public:
  // `on_evict` runs for every entry leaving the cache (LRU pressure,
  // EvictOne, destruction).
  using EvictFn = std::function<void(const PlanKey&, CompiledPlan&)>;

  // Capacity 0 is clamped to 1: Insert must return a resident plan for
  // the request being served, so "cache nothing" still holds the newest
  // entry (and silently-unbounded would defeat the subsystem).
  PlanCache(size_t capacity, EvictFn on_evict)
      : capacity_(capacity == 0 ? 1 : capacity),
        on_evict_(std::move(on_evict)) {}
  ~PlanCache() {
    while (EvictOne()) {
    }
  }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Attaches the governor account; a plan's whole footprint (the entry
  // itself, its variable list, its tape and its stats block) is charged
  // under MemLayer::kPlanCache at Insert and released at eviction. Attach
  // before the first Insert.
  void SetMemAccount(MemAccount* account) { account_ = account; }

  size_t MemoryBytes() const { return charged_bytes_; }

  // Returns the cached plan (bumped to most-recently-used) or nullptr.
  // The pointer is valid until the next Insert/EvictOne.
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

  // Evicts the least-recently-used entry; false when empty. The memory
  // pressure ladder sheds plans through this.
  bool EvictOne() {
    if (entries_.empty()) return false;
    auto& [key, plan] = entries_.back();
    if (on_evict_) on_evict_(key, plan);
    ChargeEntry(plan, -1);
    index_.erase(key);
    entries_.pop_back();
    return true;
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
