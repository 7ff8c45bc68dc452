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
    ResetShard(&seq_, trim_slots_);
  }

  bool Lookup(uint64_t hash, const Key& key, Value* out) const {
    ++lookups_;
    if (LookupIn(seq_, hash, key, out)) {
      ++hits_;
      return true;
    }
    return false;
  }

  // Inserts the key or overwrites the value stored under an equal key.
  // Branch-and-bound dominance memos use this to tighten a state's bound
  // in place when the search re-reaches it along a better prefix.
  void Upsert(uint64_t hash, const Key& key, Value value) {
    Shard& shard = seq_;
    if (!shard.slots.empty()) {
      const size_t mask = shard.slots.size() - 1;
      for (size_t i = hash & mask;; i = (i + 1) & mask) {
        Slot& slot = shard.slots[i];
        if (slot.stamp != generation_) break;  // free (empty or stale)
        if (slot.key == key) {
          slot.value = std::move(value);
          return;
        }
      }
    }
    Insert(hash, key, std::move(value));
  }

  // Inserts a key not currently present (callers always Lookup first).
  void Insert(uint64_t hash, Key key, Value value) {
    InsertIn(&seq_, hash, std::move(key), std::move(value));
  }

  size_t num_slots() const { return seq_.slots.size(); }
  // Cumulative across generations (Reset does not clear them): memo
  // effectiveness counters for manager-level stats reporting.
  uint64_t lookups() const { return lookups_; }
  uint64_t hits() const { return hits_; }

 private:
  static constexpr size_t kInitialSlots = 1 << 8;

  struct Slot {
    uint64_t hash = 0;
    Key key{};
    Value value{};
    uint64_t stamp = 0;  // slot is live iff stamp == generation_
  };

  struct Shard {
    std::vector<Slot> slots;
    size_t live = 0;
  };

  void ResetShard(Shard* shard, size_t trim) {
    shard->live = 0;
    if (shard->slots.size() > trim) {
      ChargeBytes(-static_cast<int64_t>(
          (shard->slots.size() - trim) * sizeof(Slot)));
      shard->slots.assign(trim, Slot{});
      // assign leaves stamp 0 everywhere; generation_ > 0 keeps them
      // free.
    }
  }

  bool LookupIn(const Shard& shard, uint64_t hash, const Key& key,
                Value* out) const {
    if (shard.slots.empty()) return false;
    const size_t mask = shard.slots.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = shard.slots[i];
      if (slot.stamp != generation_) return false;  // free (empty/stale)
      if (slot.key == key) {
        *out = slot.value;
        return true;
      }
    }
  }

  void InsertIn(Shard* shard, uint64_t hash, Key key, Value value) {
    if (shard->slots.empty()) {
      shard->slots.resize(kInitialSlots);
      ChargeBytes(static_cast<int64_t>(kInitialSlots * sizeof(Slot)));
    } else if ((shard->live + 1) * 3 > shard->slots.size() * 2) {
      GrowShard(shard);
    }
    InsertNoGrow(shard, hash, std::move(key), std::move(value));
    ++shard->live;
  }

  void InsertNoGrow(Shard* shard, uint64_t hash, Key key, Value value) {
    const size_t mask = shard->slots.size() - 1;
    size_t i = hash & mask;
    while (shard->slots[i].stamp == generation_) i = (i + 1) & mask;
    shard->slots[i] = {hash, std::move(key), std::move(value), generation_};
  }

  void GrowShard(Shard* shard) {
    std::vector<Slot> old = std::move(shard->slots);
    shard->slots.assign(old.size() * 2, Slot{});
    ChargeBytes(static_cast<int64_t>(old.size() * sizeof(Slot)));
    for (Slot& s : old) {
      if (s.stamp != generation_) continue;
      InsertNoGrow(shard, s.hash, std::move(s.key), std::move(s.value));
    }
  }

  void ChargeBytes(int64_t delta) {
    if (account_ != nullptr && delta != 0) {
      account_->Charge(MemLayer::kMemo, delta);
    }
  }

  Shard seq_;
  MemAccount* account_ = nullptr;
  size_t trim_slots_ = 0;
  uint64_t generation_ = 1;
  mutable uint64_t lookups_ = 0;
  mutable uint64_t hits_ = 0;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_SCOPED_MEMO_H_
