// Chunked node store with stable addresses and lock-free reads.
//
// The managers' node arenas were flat std::vectors: compact and fast, but
// push_back reallocation moves every node — fatal once parallel apply has
// other workers dereferencing node ids mid-insert. This store keeps nodes
// in fixed-size chunks that never move, behind a fixed-capacity inline
// directory of chunk pointers, so operator[] stays valid across any
// concurrent growth:
//
//   - operator[] is one dependent load (chunk pointer, indexed off the
//     store object itself) + the element access — safe on any thread for
//     any id that was *published* to it. The chunk pointers are plain
//     (non-atomic) on purpose: a reader only touches chunk c through an
//     id that was published (release store into a unique table) after
//     EnsureCapacity created c, so the chunk-pointer write happens-before
//     every read of it and there is no data race to order — while plain
//     loads let the compiler hoist and CSE chunk pointers in the apply
//     loops, which atomic accesses would forbid (measured ~1.5x on the
//     ApplyN-heavy workloads). Keeping the directory inline (no growable
//     indirection) holds the loops at vector speed.
//   - PushBack is the sequential append (single-owner mode; the relaxed
//     atomics compile to plain moves).
//   - ClaimBlock(n) is the parallel allocation primitive: each worker
//     claims a block of ids with one fetch_add and bump-allocates inside
//     it, so id allocation is striped per worker and the only shared
//     write is the (rare) block claim. Unused block tails are the
//     claimer's to account for (the SDD manager marks them as holes when
//     the parallel region ends).
//
// Capacity is kMaxChunks * 2^kChunkBits ids (64M at the defaults, ~32KB
// of inline directory); exceeding it is a CHECK failure, far above any
// single compile the node budgets admit. Chunks are allocated
// with default-initialization: POD element types leave pages untouched
// until first written, so thousands of tiny short-lived managers (order
// search) pay one ~192KB virtual allocation, not a physical one.

#ifndef CTSDD_UTIL_NODE_STORE_H_
#define CTSDD_UTIL_NODE_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>

#include "util/logging.h"
#include "util/mem_governor.h"

namespace ctsdd {

template <typename T, size_t kChunkBits = 14, size_t kMaxChunks = 4096>
class NodeStore {
 public:
  // Chunks are default-initialized (see EnsureCapacity): an element type
  // with member initializers would make every new chunk a full write.
  static_assert(std::is_trivially_default_constructible_v<T>,
                "NodeStore elements must leave fresh chunks untouched");
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kChunkMask = kChunkSize - 1;

  NodeStore() {
    for (size_t i = 0; i < kMaxChunks; ++i) chunks_[i] = nullptr;
  }

  ~NodeStore() {
    for (size_t i = 0; i < num_chunks_; ++i) delete[] chunks_[i];
    if (account_ != nullptr && num_chunks_ > 0) {
      account_->Charge(MemLayer::kNodeStore,
                       -static_cast<int64_t>(num_chunks_ * kChunkBytes));
    }
  }

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  size_t size() const { return size_.load(std::memory_order_relaxed); }

  T& operator[](size_t i) { return chunks_[i >> kChunkBits][i & kChunkMask]; }
  const T& operator[](size_t i) const {
    return chunks_[i >> kChunkBits][i & kChunkMask];
  }

  // Sequential append (single-owner mode). Returns the new id.
  size_t PushBack(T value) {
    const size_t id = size_.load(std::memory_order_relaxed);
    EnsureCapacity(id + 1);
    (*this)[id] = std::move(value);
    size_.store(id + 1, std::memory_order_relaxed);
    return id;
  }

  // Claims `n` fresh consecutive ids (thread-safe); their chunks exist on
  // return. The caller owns initializing every claimed slot — including
  // any tail it ends up not using.
  size_t ClaimBlock(size_t n) {
    const size_t first = size_.fetch_add(n, std::memory_order_relaxed);
    EnsureCapacity(first + n);
    return first;
  }

  // Makes ids [0, upto) addressable without advancing size() — for side
  // stores indexed in lockstep with a primary store (the SDD manager's
  // per-node FastInfo records). Thread-safe.
  void Reserve(size_t upto) { EnsureCapacity(upto); }

  // Memory-governor accounting: charges the already-allocated chunks to
  // `account` (releasing them from any previous account) and every
  // future chunk as it is created. Attach while quiescent or from the
  // owning thread; charges themselves are chunk-granular and ride the
  // grow lock.
  void SetMemAccount(MemAccount* account) {
    std::lock_guard<std::mutex> lock(grow_mu_);
    const int64_t held = static_cast<int64_t>(num_chunks_ * kChunkBytes);
    if (account_ != nullptr && held > 0) {
      account_->Charge(MemLayer::kNodeStore, -held);
    }
    account_ = account;
    if (account_ != nullptr && held > 0) {
      account_->Charge(MemLayer::kNodeStore, held);
    }
  }

  // Recomputed resident bytes, for exactness asserts at quiescent points.
  size_t MemoryBytes() const {
    return chunks_ready_.load(std::memory_order_acquire) * kChunkBytes;
  }

 private:
  static constexpr size_t kChunkBytes = kChunkSize * sizeof(T);

  // Makes every chunk covering ids [0, upto) exist. Thread-safe; cheap
  // when already satisfied (one relaxed load).
  void EnsureCapacity(size_t upto) {
    const size_t chunks_needed = (upto + kChunkSize - 1) >> kChunkBits;
    if (chunks_needed <= chunks_ready_.load(std::memory_order_acquire)) {
      return;
    }
    std::lock_guard<std::mutex> lock(grow_mu_);
    CTSDD_CHECK_LE(chunks_needed, kMaxChunks) << "NodeStore capacity";
    while (num_chunks_ < chunks_needed) {
      // Default-initialization on purpose: POD nodes stay untouched (the
      // owner initializes every id it publishes), so the physical cost
      // of a chunk is paid by use, not by allocation.
      chunks_[num_chunks_] = new T[kChunkSize];
      ++num_chunks_;
      if (account_ != nullptr) {
        account_->Charge(MemLayer::kNodeStore,
                         static_cast<int64_t>(kChunkBytes));
      }
    }
    // The release pairs with the fast-path acquire above: a claimer that
    // sees chunks_ready_ >= needed also sees the chunk pointers. Readers
    // of *published ids* are ordered by the id publication instead (see
    // file comment).
    chunks_ready_.store(num_chunks_, std::memory_order_release);
  }

  std::atomic<size_t> size_{0};
  std::atomic<size_t> chunks_ready_{0};  // fast-path guard
  size_t num_chunks_ = 0;                // guarded by grow_mu_
  MemAccount* account_ = nullptr;        // guarded by grow_mu_
  std::mutex grow_mu_;
  T* chunks_[kMaxChunks];
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_NODE_STORE_H_
