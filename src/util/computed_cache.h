// Bounded, lossy computed cache for memoizing decision-diagram operations
// (ITE, Apply, negation, n-ary folds) — the CUDD-style "computed table".
//
// Unlike the unique table, entries here are advisory: a miss only costs a
// recomputation, so the cache is a direct-mapped array that overwrites on
// collision. To avoid conflict thrash on apply-heavy workloads whose live
// result set exceeds the initial array, the table doubles itself when
// evictions of live entries pile up — but only up to the caller-supplied
// slot bound, so memory stays bounded no matter how long an operation
// sequence runs (the guarantee the unbounded std::unordered_map caches it
// replaces could not give). The cache lives as long as its manager,
// which lives for one compile, so nothing ever clears it.
//
// Concurrent protocol (exec-managed parallel regions): BeginConcurrent()
// freezes the slot array (growth would move entries under readers) and
// arms a lock stripe; LookupC/StoreC guard each probe with the spinlock
// of the slot's stripe — a slot maps to exactly one stripe, so one short
// critical section covers the whole read-check or overwrite. Losing an
// entry to a racing overwrite only costs recomputation, exactly like
// eviction. Sequential Lookup/Store never touch a lock and are unchanged;
// the two protocols must not interleave (the managers' parallel-region
// contract).

#ifndef CTSDD_UTIL_COMPUTED_CACHE_H_
#define CTSDD_UTIL_COMPUTED_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/mem_governor.h"
#include "util/spinlock.h"

namespace ctsdd {

// Key must be equality-comparable and cheap to copy or move.
template <typename Key, typename Value = int32_t>
class ComputedCache {
 public:
  // `max_slots` is the hard size bound. The array starts at `init_slots`
  // (clamped to the bound) and doubles under eviction pressure until it
  // reaches the bound. The slot array is allocated lazily on the first
  // Store, so managers that never exercise an operation (or tiny
  // short-lived managers, of which order-search loops create thousands)
  // pay nothing for the cache. Raise `init_slots` for caches whose misses
  // trigger cascading recomputation (e.g. the SDD semantic node cache),
  // where warm-up thrash at the default size is costlier than the array.
  explicit ComputedCache(size_t max_slots = 1 << 22,
                         size_t init_slots = kInitialSlots) {
    max_slots_ = 2;
    while (max_slots_ < max_slots) max_slots_ <<= 1;
    init_slots_ = 2;
    while (init_slots_ < init_slots) init_slots_ <<= 1;
    init_slots_ = std::min(init_slots_, max_slots_);
  }

  ~ComputedCache() {
    if (account_ != nullptr && charged_bytes_ > 0) {
      account_->Charge(MemLayer::kCache,
                       -static_cast<int64_t>(charged_bytes_));
    }
  }

  // Attaches the governor account. Cache growth is *discretionary*: a
  // miss only costs recomputation, so above the soft watermark the
  // governor denies doubling (and clamps presizes) instead of being
  // charged for it — the one layer that sheds by simply not growing.
  // Sequential-context only (growth never happens inside the striped
  // protocol).
  void SetMemAccount(MemAccount* account) {
    if (account_ != nullptr && charged_bytes_ > 0) {
      account_->Charge(MemLayer::kCache,
                       -static_cast<int64_t>(charged_bytes_));
    }
    account_ = account;
    if (account_ != nullptr && charged_bytes_ > 0) {
      account_->Charge(MemLayer::kCache,
                       static_cast<int64_t>(charged_bytes_));
    }
  }

  size_t MemoryBytes() const { return slots_.size() * sizeof(Slot); }

  size_t num_slots() const { return slots_.size(); }
  size_t max_slots() const { return max_slots_; }
  uint64_t lookups() const {
    return lookups_ + c_lookups_.load(std::memory_order_relaxed);
  }
  uint64_t hits() const {
    return hits_ + c_hits_.load(std::memory_order_relaxed);
  }

  bool Lookup(uint64_t hash, const Key& key, Value* out) {
    ++lookups_;
    if (slots_.empty()) return false;
    const Slot& slot = slots_[hash & (slots_.size() - 1)];
    if (slot.stamp == kFilled && slot.key == key) {
      *out = slot.value;
      ++hits_;
      return true;
    }
    return false;
  }

  void Store(uint64_t hash, Key key, Value value) {
    if (slots_.empty()) {
      // Under soft-watermark pressure the lazy array comes up at the
      // floor instead of the tuned init size; misses recompute.
      const size_t init = AllowGrowthTo(init_slots_)
                              ? init_slots_
                              : std::min(init_slots_, kInitialSlots);
      slots_.resize(init);
      SyncBytes();
    }
    Slot& slot = slots_[hash & (slots_.size() - 1)];
    if (slot.stamp == kFilled && !(slot.key == key)) {
      // Conflict eviction of a live entry: when half the table has been
      // churned since the last resize, the live result set has outgrown
      // the array — double it (within the bound) instead of thrashing.
      if (++evictions_ >= slots_.size() / 2 + 1 &&
          slots_.size() < max_slots_ && AllowGrowthTo(slots_.size() * 2)) {
        Grow();
        Slot& moved = slots_[hash & (slots_.size() - 1)];
        moved.hash = hash;
        moved.key = std::move(key);
        moved.value = std::move(value);
        moved.stamp = kFilled;
        return;
      }
    }
    slot.hash = hash;
    slot.key = std::move(key);
    slot.value = std::move(value);
    slot.stamp = kFilled;
  }

  // --- Concurrent protocol (see file comment) ---------------------------

  // Arms the stripe locks and pre-sizes the array to at least
  // `min_slots` (clamped to the bound, at least one slot per stripe):
  // the array cannot grow while stripes are live, so warm-up thrash
  // would otherwise be locked in for the whole region.
  void BeginConcurrent(size_t min_slots) {
    if (locks_ == nullptr) {
      locks_ = std::make_unique<SpinLock[]>(kStripes);
    }
    size_t target = std::max<size_t>(min_slots, kStripes);
    target = std::min(target, max_slots_);
    size_t init = init_slots_;
    // The presize is a warm-up optimization (the array is frozen for the
    // region, so thrash would be locked in); under pressure the governor
    // trades that thrash for bytes. One slot per stripe stays mandatory.
    if (!AllowGrowthTo(std::max(target, init))) {
      target = std::min<size_t>(std::max<size_t>(kStripes, kInitialSlots),
                                max_slots_);
      init = target;
    }
    if (slots_.empty()) {
      size_t n = init;
      while (n < target) n <<= 1;
      slots_.resize(std::min(n, max_slots_));
    }
    while (slots_.size() < target) Grow();
    SyncBytes();
    concurrent_ = true;
  }

  void EndConcurrent() { concurrent_ = false; }
  bool concurrent() const { return concurrent_; }

  bool LookupC(uint64_t hash, const Key& key, Value* out) {
    c_lookups_.fetch_add(1, std::memory_order_relaxed);
    const size_t index = hash & (slots_.size() - 1);
    SpinLockGuard guard(locks_[index & (kStripes - 1)]);
    const Slot& slot = slots_[index];
    if (slot.stamp == kFilled && slot.key == key) {
      *out = slot.value;
      c_hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  void StoreC(uint64_t hash, Key key, Value value) {
    const size_t index = hash & (slots_.size() - 1);
    SpinLockGuard guard(locks_[index & (kStripes - 1)]);
    Slot& slot = slots_[index];
    slot.hash = hash;
    slot.key = std::move(key);
    slot.value = std::move(value);
    slot.stamp = kFilled;
  }

 private:
  static constexpr size_t kInitialSlots = 1 << 8;
  static constexpr size_t kStripes = 64;
  static constexpr uint32_t kFilled = 1;

  struct Slot {
    uint64_t hash = 0;  // retained so live entries can move on Grow()
    Key key{};
    Value value{};
    uint32_t stamp = 0;  // kFilled once the slot holds an entry
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (Slot& s : old) {
      if (s.stamp != kFilled) continue;
      slots_[s.hash & (slots_.size() - 1)] = std::move(s);
    }
    evictions_ = 0;
    SyncBytes();
  }

  // True iff sizing the slot array to `target_slots` is within the
  // governor's discretionary-growth allowance (always true ungoverned).
  bool AllowGrowthTo(size_t target_slots) const {
    if (account_ == nullptr || target_slots <= slots_.size()) return true;
    MemGovernor* gov = account_->governor();
    if (gov == nullptr) return true;
    return gov->AllowOptionalGrowth(
        (target_slots - slots_.size()) * sizeof(Slot));
  }

  void SyncBytes() {
    const size_t now = slots_.size() * sizeof(Slot);
    if (account_ != nullptr && now != charged_bytes_) {
      account_->Charge(MemLayer::kCache, static_cast<int64_t>(now) -
                                             static_cast<int64_t>(
                                                 charged_bytes_));
    }
    charged_bytes_ = now;
  }

  std::vector<Slot> slots_;
  size_t max_slots_ = 0;
  size_t init_slots_ = kInitialSlots;
  size_t charged_bytes_ = 0;
  MemAccount* account_ = nullptr;
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
  uint64_t evictions_ = 0;
  // Concurrent-protocol state: stripe locks (allocated on first use) and
  // counters kept separate so the sequential hot path never pays an
  // atomic increment.
  std::unique_ptr<SpinLock[]> locks_;
  bool concurrent_ = false;
  std::atomic<uint64_t> c_lookups_{0};
  std::atomic<uint64_t> c_hits_{0};
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_COMPUTED_CACHE_H_
