// Open-addressed exact memo table scoped to one logical operation.
//
// Complements util/computed_cache.h: the computed cache is bounded and
// lossy (eviction costs recomputation), while recursive apply algorithms
// need an *exact* memo within a single top-level operation to keep their
// polynomial complexity bound. This table provides that at array speed:
// linear probing over flat slots, O(1) generational reset between
// operations (stale slots read as free), and a high-water trim so one
// giant operation does not pin its peak footprint forever.
//
// Exactness holds within a generation: nothing goes stale mid-operation,
// so probe sequences are stable and an inserted key is always found.
// Single-owner: not safe for concurrent use.

#ifndef CTSDD_UTIL_SCOPED_MEMO_H_
#define CTSDD_UTIL_SCOPED_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/mem_governor.h"

namespace ctsdd {

// Key must be equality-comparable and cheap to copy.
template <typename Key, typename Value = int32_t>
class ScopedMemo {
 public:
  // The slot arrays are allocated lazily on the first Insert, so managers
  // that never run an apply pay nothing for the memo.
  explicit ScopedMemo(size_t trim_slots = 1 << 20) {
    trim_slots_ = kInitialSlots;
    while (trim_slots_ < trim_slots) trim_slots_ <<= 1;
  }

  ~ScopedMemo() {
    ChargeBytes(-static_cast<int64_t>(num_slots() * sizeof(Slot)));
  }

  // Attaches the governor account (releasing from any previous one).
  // Memo growth is *mandatory* — linear probing needs headroom for
  // exactness — so it is charged, never denied; the managers' admission
  // burst margin covers it. Attach while quiescent.
  void SetMemAccount(MemAccount* account) {
    const int64_t held = static_cast<int64_t>(num_slots() * sizeof(Slot));
    ChargeBytes(-held);
    account_ = account;
    ChargeBytes(held);
  }

  size_t MemoryBytes() const { return num_slots() * sizeof(Slot); }

  // Starts a new operation: invalidates every entry in O(1) and releases
  // excess capacity left behind by an unusually large previous operation.
  void Reset() {
    ++generation_;
    live_ = 0;
    if (slots_.size() > trim_slots_) {
      ChargeBytes(
          -static_cast<int64_t>((slots_.size() - trim_slots_) * sizeof(Slot)));
      slots_.assign(trim_slots_, Slot{});
      // assign leaves stamp 0 everywhere; generation_ > 0 keeps them free.
    }
  }

  bool Lookup(uint64_t hash, const Key& key, Value* out) const {
    ++lookups_;
    const size_t i = Find(hash, key);
    if (i == kNotFound) return false;
    ++hits_;
    *out = slots_[i].value;
    return true;
  }

  // Inserts the key or overwrites the value stored under an equal key.
  // Branch-and-bound dominance memos use this to tighten a state's bound
  // in place when the search re-reaches it along a better prefix.
  void Upsert(uint64_t hash, const Key& key, Value value) {
    const size_t i = Find(hash, key);
    if (i != kNotFound) {
      slots_[i].value = std::move(value);
      return;
    }
    Insert(hash, key, std::move(value));
  }

  // Inserts a key not currently present (callers always Lookup first).
  void Insert(uint64_t hash, Key key, Value value) {
    if (slots_.empty()) {
      slots_.resize(kInitialSlots);
      ChargeBytes(static_cast<int64_t>(kInitialSlots * sizeof(Slot)));
    } else if ((live_ + 1) * 3 > slots_.size() * 2) {
      Grow();
    }
    InsertNoGrow(hash, std::move(key), std::move(value));
    ++live_;
  }

  size_t num_slots() const { return slots_.size(); }
  // Cumulative across generations (Reset does not clear them): memo
  // effectiveness counters for manager-level stats reporting.
  uint64_t lookups() const { return lookups_; }
  uint64_t hits() const { return hits_; }

 private:
  static constexpr size_t kInitialSlots = 1 << 8;
  static constexpr size_t kNotFound = ~size_t{0};

  struct Slot {
    uint64_t hash = 0;
    Key key{};
    Value value{};
    uint64_t stamp = 0;  // slot is live iff stamp == generation_
  };

  // Index of the live slot holding `key`, or kNotFound.
  size_t Find(uint64_t hash, const Key& key) const {
    if (slots_.empty()) return kNotFound;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.stamp != generation_) return kNotFound;  // free/stale
      if (slot.key == key) return i;
    }
  }

  void InsertNoGrow(uint64_t hash, Key key, Value value) {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].stamp == generation_) i = (i + 1) & mask;
    slots_[i] = {hash, std::move(key), std::move(value), generation_};
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    ChargeBytes(static_cast<int64_t>(old.size() * sizeof(Slot)));
    for (Slot& s : old) {
      if (s.stamp != generation_) continue;
      InsertNoGrow(s.hash, std::move(s.key), std::move(s.value));
    }
  }

  void ChargeBytes(int64_t delta) {
    if (account_ != nullptr && delta != 0) {
      account_->Charge(MemLayer::kMemo, delta);
    }
  }

  std::vector<Slot> slots_;
  size_t live_ = 0;
  MemAccount* account_ = nullptr;
  size_t trim_slots_ = 0;
  uint64_t generation_ = 1;
  mutable uint64_t lookups_ = 0;
  mutable uint64_t hits_ = 0;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_SCOPED_MEMO_H_
