// Open-addressed unique table for hash-consing decision-diagram nodes.
//
// The table stores (hash, node id) pairs in a power-of-two slot array with
// linear probing; key material lives in the owning manager's node store, so
// a probe is one cache line of table metadata plus the client-supplied
// equality check against the candidate node. This replaces the
// std::unordered_map-of-owning-keys pattern (one heap key per entry, a
// pointer chase per probe) in the managers' hot apply loops.
//
// Two access protocols share the same storage:
//
//  - Single-owner (the managers' default): Find / Insert, no locking. The
//    slots are atomics accessed with relaxed ordering, which compiles to
//    the plain loads/stores of the original flat-array table. Usage
//    pattern (no rehash can occur between Find and Insert as long as the
//    caller performs no other table operations in between):
//
//      const uint64_t h = <hash of key>;
//      int32_t id = table.Find(h, [&](int32_t cand) { return <matches>; });
//      if (id < 0) { id = <create node>; table.Insert(h, id); }
//
//  - Concurrent (exec-managed parallel regions): FindOrInsert performs a
//    CAS-based insert-or-find. A thread that finds no match claims the
//    first empty probe slot by CASing in a reservation, constructs the
//    node (the `make` callback — so exactly one node is ever built per
//    key, no losers left behind), publishes the id with a release
//    store, and every other thread racing on that key either waits out
//    the reservation or acquires the published id. Canonicity is
//    preserved under any interleaving: for a given key, one slot wins
//    and every caller returns its id. Growth takes the table's
//    shared_mutex exclusively; FindOrInsert holds it shared, so probes
//    never observe a mid-rebuild array.
//
// The two protocols must not run concurrently with each other — that is
// the managers' parallel-region contract, enforced in debug builds by
// util/thread_check.h.

#ifndef CTSDD_UTIL_UNIQUE_TABLE_H_
#define CTSDD_UTIL_UNIQUE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "util/mem_governor.h"

namespace ctsdd {

class UniqueTable {
 public:
  static constexpr int32_t kEmpty = -1;
  // A slot claimed by an in-flight concurrent insert, pre-publication.
  static constexpr int32_t kReserved = -2;

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

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  size_t num_slots() const {
    return num_slots_.load(std::memory_order_relaxed);
  }

  // Attaches the governor account (releasing from any previous one).
  // Doubling is mandatory growth — charged, never denied; the managers'
  // admission burst margin budgets for it up front. Attach while
  // quiescent; Allocate charges under the rebuild's exclusivity.
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

  size_t MemoryBytes() const {
    return num_slots_.load(std::memory_order_relaxed) * kSlotBytes;
  }

  // Returns the id of the entry whose stored hash equals `hash` and for
  // which `eq(id)` is true, or kEmpty. Single-owner protocol.
  template <typename Eq>
  int32_t Find(uint64_t hash, Eq&& eq) const {
    const size_t mask = num_slots_.load(std::memory_order_relaxed) - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const int32_t id = ids_[i].load(std::memory_order_relaxed);
      if (id == kEmpty) return kEmpty;
      if (hashes_[i].load(std::memory_order_relaxed) == hash && eq(id)) {
        return id;
      }
    }
  }

  // Inserts `id` under `hash`. The caller must have checked absence via
  // Find with the same hash (duplicate keys would shadow each other).
  // Single-owner protocol.
  void Insert(uint64_t hash, int32_t id) {
    const size_t slots = num_slots_.load(std::memory_order_relaxed);
    const size_t count = size_.load(std::memory_order_relaxed);
    if ((count + 1) * 3 > slots * 2) {
      GrowLocked(slots * 2);
    }
    InsertNoGrow(hash, id);
    // Plain load+store, not fetch_add: single-owner protocol, and a
    // locked RMW on every node insert costs real throughput.
    size_.store(count + 1, std::memory_order_relaxed);
  }

  // Concurrent insert-or-find: returns the id of the existing entry
  // matching (`hash`, `eq`), or claims a slot, calls `make()` exactly
  // once to construct the node, publishes its id, and returns it. Safe
  // to call from any number of threads; `make` may allocate through the
  // caller's striped arena but must not touch this table.
  template <typename Eq, typename Make>
  int32_t FindOrInsert(uint64_t hash, Eq&& eq, Make&& make) {
    int32_t result = kEmpty;
    bool inserted = false;
    {
      std::shared_lock<std::shared_mutex> lock(resize_mu_);
      const size_t mask = num_slots_.load(std::memory_order_relaxed) - 1;
      size_t i = hash & mask;
      for (;;) {
        int32_t id = ids_[i].load(std::memory_order_acquire);
        if (id == kEmpty) {
          if (ids_[i].compare_exchange_strong(id, kReserved,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            result = make();
            hashes_[i].store(hash, std::memory_order_relaxed);
            ids_[i].store(result, std::memory_order_release);
            size_.fetch_add(1, std::memory_order_relaxed);
            inserted = true;
            break;
          }
          continue;  // somebody claimed slot i: re-examine it
        }
        if (id == kReserved) {
          // Publication in flight (a handful of stores): wait it out —
          // skipping ahead could duplicate the key being published.
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
          continue;
        }
        if (hashes_[i].load(std::memory_order_relaxed) == hash && eq(id)) {
          result = id;
          break;
        }
        i = (i + 1) & mask;
      }
    }
    if (inserted && size_.load(std::memory_order_relaxed) * 3 >
                        num_slots_.load(std::memory_order_relaxed) * 2) {
      std::unique_lock<std::shared_mutex> lock(resize_mu_);
      const size_t slots = num_slots_.load(std::memory_order_relaxed);
      if (size_.load(std::memory_order_relaxed) * 3 > slots * 2) {
        GrowLocked(slots * 2);
      }
    }
    return result;
  }

 private:
  static constexpr size_t kSlotBytes =
      sizeof(std::atomic<uint64_t>) + sizeof(std::atomic<int32_t>);

  void Allocate(size_t n) {
    const size_t old_n = num_slots_.load(std::memory_order_relaxed);
    hashes_ = std::make_unique<std::atomic<uint64_t>[]>(n);
    ids_ = std::make_unique<std::atomic<int32_t>[]>(n);
    for (size_t i = 0; i < n; ++i) {
      hashes_[i].store(0, std::memory_order_relaxed);
      ids_[i].store(kEmpty, std::memory_order_relaxed);
    }
    num_slots_.store(n, std::memory_order_relaxed);
    if (account_ != nullptr && n != old_n) {
      account_->Charge(MemLayer::kUniqueTable,
                       (static_cast<int64_t>(n) -
                        static_cast<int64_t>(old_n)) *
                           static_cast<int64_t>(kSlotBytes));
    }
  }

  void InsertNoGrow(uint64_t hash, int32_t id) {
    const size_t mask = num_slots_.load(std::memory_order_relaxed) - 1;
    size_t i = hash & mask;
    while (ids_[i].load(std::memory_order_relaxed) != kEmpty) {
      i = (i + 1) & mask;
    }
    hashes_[i].store(hash, std::memory_order_relaxed);
    ids_[i].store(id, std::memory_order_relaxed);
  }

  // Rebuilds into `new_slots` slots. Caller holds resize_mu_ exclusively
  // or owns the table outright.
  void GrowLocked(size_t new_slots) {
    std::unique_ptr<std::atomic<uint64_t>[]> old_hashes =
        std::move(hashes_);
    std::unique_ptr<std::atomic<int32_t>[]> old_ids = std::move(ids_);
    const size_t old_n = num_slots_.load(std::memory_order_relaxed);
    Allocate(new_slots);
    for (size_t i = 0; i < old_n; ++i) {
      const int32_t id = old_ids[i].load(std::memory_order_relaxed);
      if (id == kEmpty) continue;
      InsertNoGrow(old_hashes[i].load(std::memory_order_relaxed), id);
    }
  }

  std::unique_ptr<std::atomic<uint64_t>[]> hashes_;
  std::unique_ptr<std::atomic<int32_t>[]> ids_;
  // Relaxed-atomic so the unlocked growth heuristic in FindOrInsert
  // may read it while a resizer writes it; every probe takes a stable
  // local copy inside its lock section.
  std::atomic<size_t> num_slots_{0};
  std::atomic<size_t> size_{0};
  MemAccount* account_ = nullptr;
  std::shared_mutex resize_mu_;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_UNIQUE_TABLE_H_
