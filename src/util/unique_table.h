// Open-addressed unique table for hash-consing decision-diagram nodes.
//
// The table stores (hash, node id) pairs in a power-of-two slot array with
// linear probing; key material lives in the owning manager's node store, so
// a probe is one cache line of table metadata plus the client-supplied
// equality check against the candidate node. This replaces the
// std::unordered_map-of-owning-keys pattern (one heap key per entry, a
// pointer chase per probe) in the managers' hot apply loops.
//
// Single-owner, like the managers that hold it (util/thread_check.h).
// Usage pattern (no rehash can occur between Find and Insert as long as
// the caller performs no other table operations in between):
//
//   const uint64_t h = <hash of key>;
//   int32_t id = table.Find(h, [&](int32_t cand) { return <matches>; });
//   if (id < 0) { id = <create node>; table.Insert(h, id); }

#ifndef CTSDD_UTIL_UNIQUE_TABLE_H_
#define CTSDD_UTIL_UNIQUE_TABLE_H_

#include <cstdint>
#include <memory>

#include "util/mem_governor.h"

namespace ctsdd {

class UniqueTable {
 public:
  static constexpr int32_t kEmpty = -1;

  explicit UniqueTable(size_t initial_slots = 1 << 10) {
    size_t n = 16;
    while (n < initial_slots) n <<= 1;
    Allocate(n);
  }

  ~UniqueTable() {
    if (account_ != nullptr) {
      account_->Charge(MemLayer::kUniqueTable,
                       -static_cast<int64_t>(MemoryBytes()));
    }
  }

  size_t size() const { return size_; }
  size_t num_slots() const { return num_slots_; }

  // Attaches the governor account (releasing from any previous one).
  // Doubling is mandatory growth — charged, never denied; the managers'
  // admission burst margin budgets for it up front.
  void SetMemAccount(MemAccount* account) {
    const int64_t held = static_cast<int64_t>(MemoryBytes());
    if (account_ != nullptr) {
      account_->Charge(MemLayer::kUniqueTable, -held);
    }
    account_ = account;
    if (account_ != nullptr) {
      account_->Charge(MemLayer::kUniqueTable, held);
    }
  }

  size_t MemoryBytes() const { return num_slots_ * kSlotBytes; }

  // Returns the id of the entry whose stored hash equals `hash` and for
  // which `eq(id)` is true, or kEmpty.
  template <typename Eq>
  int32_t Find(uint64_t hash, Eq&& eq) const {
    const size_t mask = num_slots_ - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const int32_t id = ids_[i];
      if (id == kEmpty) return kEmpty;
      if (hashes_[i] == hash && eq(id)) return id;
    }
  }

  // Inserts `id` under `hash`. The caller must have checked absence via
  // Find with the same hash (duplicate keys would shadow each other).
  void Insert(uint64_t hash, int32_t id) {
    if ((size_ + 1) * 3 > num_slots_ * 2) Grow(num_slots_ * 2);
    InsertNoGrow(hash, id);
    ++size_;
  }

 private:
  static constexpr size_t kSlotBytes = sizeof(uint64_t) + sizeof(int32_t);

  void Allocate(size_t n) {
    const size_t old_n = num_slots_;
    hashes_ = std::make_unique<uint64_t[]>(n);  // value-initialized: 0
    ids_ = std::make_unique<int32_t[]>(n);
    for (size_t i = 0; i < n; ++i) ids_[i] = kEmpty;
    num_slots_ = n;
    if (account_ != nullptr && n != old_n) {
      account_->Charge(MemLayer::kUniqueTable,
                       (static_cast<int64_t>(n) -
                        static_cast<int64_t>(old_n)) *
                           static_cast<int64_t>(kSlotBytes));
    }
  }

  void InsertNoGrow(uint64_t hash, int32_t id) {
    const size_t mask = num_slots_ - 1;
    size_t i = hash & mask;
    while (ids_[i] != kEmpty) i = (i + 1) & mask;
    hashes_[i] = hash;
    ids_[i] = id;
  }

  // Rebuilds into `new_slots` slots.
  void Grow(size_t new_slots) {
    std::unique_ptr<uint64_t[]> old_hashes = std::move(hashes_);
    std::unique_ptr<int32_t[]> old_ids = std::move(ids_);
    const size_t old_n = num_slots_;
    Allocate(new_slots);
    for (size_t i = 0; i < old_n; ++i) {
      if (old_ids[i] != kEmpty) InsertNoGrow(old_hashes[i], old_ids[i]);
    }
  }

  std::unique_ptr<uint64_t[]> hashes_;
  std::unique_ptr<int32_t[]> ids_;
  size_t num_slots_ = 0;
  size_t size_ = 0;
  MemAccount* account_ = nullptr;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_UNIQUE_TABLE_H_
