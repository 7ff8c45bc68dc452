// Chunked node store with stable addresses.
//
// The managers' node arenas were flat std::vectors: compact and fast, but
// push_back reallocation moves every node, and a recursion holding a node
// reference across an allocation would dangle. This store keeps nodes in
// fixed-size chunks that never move, behind a fixed-capacity inline
// directory of chunk pointers, so a reference stays valid across any
// growth. operator[] is one dependent load (chunk pointer, indexed off
// the store object itself) plus the element access; keeping the
// directory inline (no growable indirection) holds the apply loops at
// vector speed. Single-owner, like the managers that hold it
// (util/thread_check.h).
//
// Capacity is kMaxChunks * 2^kChunkBits ids (64M at the defaults, ~32KB
// of inline directory); exceeding it is a CHECK failure, far above any
// single compile the node budgets admit. Chunks are allocated
// with default-initialization: POD element types leave pages untouched
// until first written, so thousands of tiny short-lived managers (order
// search) pay one ~192KB virtual allocation, not a physical one.

#ifndef CTSDD_UTIL_NODE_STORE_H_
#define CTSDD_UTIL_NODE_STORE_H_

#include <cstddef>
#include <cstdint>
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

  size_t size() const { return size_; }

  T& operator[](size_t i) { return chunks_[i >> kChunkBits][i & kChunkMask]; }
  const T& operator[](size_t i) const {
    return chunks_[i >> kChunkBits][i & kChunkMask];
  }

  // Appends `value`. Returns the new id.
  size_t PushBack(T value) {
    const size_t id = size_;
    EnsureCapacity(id + 1);
    (*this)[id] = std::move(value);
    size_ = id + 1;
    return id;
  }

  // Makes ids [0, upto) addressable without advancing size() — for side
  // stores indexed in lockstep with a primary store (the SDD manager's
  // per-node FastInfo records).
  void Reserve(size_t upto) { EnsureCapacity(upto); }

  // Memory-governor accounting: charges the already-allocated chunks to
  // `account` (releasing them from any previous account) and every
  // future chunk as it is created (chunk-granular).
  void SetMemAccount(MemAccount* account) {
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
  size_t MemoryBytes() const { return num_chunks_ * kChunkBytes; }

 private:
  static constexpr size_t kChunkBytes = kChunkSize * sizeof(T);

  // Makes every chunk covering ids [0, upto) exist; cheap when already
  // satisfied (one compare).
  void EnsureCapacity(size_t upto) {
    const size_t chunks_needed = (upto + kChunkSize - 1) >> kChunkBits;
    if (chunks_needed <= num_chunks_) return;
    CTSDD_CHECK_LE(chunks_needed, kMaxChunks) << "NodeStore capacity";
    while (num_chunks_ < chunks_needed) {
      // Default-initialization on purpose: POD nodes stay untouched (the
      // owner initializes every id it creates), so the physical cost of a
      // chunk is paid by use, not by allocation.
      chunks_[num_chunks_] = new T[kChunkSize];
      ++num_chunks_;
      if (account_ != nullptr) {
        account_->Charge(MemLayer::kNodeStore,
                         static_cast<int64_t>(kChunkBytes));
      }
    }
  }

  size_t size_ = 0;
  size_t num_chunks_ = 0;
  MemAccount* account_ = nullptr;
  T* chunks_[kMaxChunks];
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_NODE_STORE_H_
