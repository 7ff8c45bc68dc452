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
// which lives for one compile, so nothing ever clears it. Single-owner,
// like the managers that hold it (util/thread_check.h).

#ifndef CTSDD_UTIL_COMPUTED_CACHE_H_
#define CTSDD_UTIL_COMPUTED_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/mem_governor.h"

namespace ctsdd {

// Key must be equality-comparable and cheap to copy or move.
template <typename Key, typename Value = int32_t>
class ComputedCache {
 public:
  // `max_slots` is the hard size bound. The array starts at 256 slots
  // (clamped to the bound) and doubles under eviction pressure until it
  // reaches the bound. The slot array is allocated lazily on the first
  // Store, so managers that never exercise an operation (or tiny
  // short-lived managers, of which order-search loops create thousands)
  // pay nothing for the cache, and a small compile touches only a few
  // pages of it. (A pre-sized 512 KB first array for the SDD semantic
  // cache about doubled serve_cold's median latency in page faults;
  // src/README.md, the small-scope semantic layer.)
  explicit ComputedCache(size_t max_slots = 1 << 22) {
    max_slots_ = 2;
    while (max_slots_ < max_slots) max_slots_ <<= 1;
  }

  ~ComputedCache() {
    if (account_ != nullptr && charged_bytes_ > 0) {
      account_->Charge(MemLayer::kCache,
                       -static_cast<int64_t>(charged_bytes_));
    }
  }

  // Attaches the governor account. Cache growth is *discretionary*: a
  // miss only costs recomputation, so above the soft watermark the
  // governor denies doubling instead of being charged for it — the one
  // layer that sheds by simply not growing.
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
  uint64_t lookups() const { return lookups_; }
  uint64_t hits() const { return hits_; }

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
      slots_.resize(std::min(kInitialSlots, max_slots_));
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

 private:
  static constexpr size_t kInitialSlots = 1 << 8;
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
  size_t charged_bytes_ = 0;
  MemAccount* account_ = nullptr;
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_COMPUTED_CACHE_H_
