// Minimal test-and-test-and-set spinlock for the trace ring buffers.
//
// The critical sections it guards are a handful of loads/stores (one
// event append or a drain), far below the cost of parking a thread, so a
// spinlock beats std::mutex there; everything long-lived (worker
// parking) uses real mutexes. Acquire/release ordering
// makes the guarded writes visible to the next holder — and keeps
// ThreadSanitizer able to reason about the happens-before edges.

#ifndef CTSDD_UTIL_SPINLOCK_H_
#define CTSDD_UTIL_SPINLOCK_H_

#include <atomic>

namespace ctsdd {

class SpinLock {
 public:
  void lock() {
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      // Test-and-test-and-set: spin on the cheap load, not the RMW.
      while (locked_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
  }
  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

// std::lock_guard-compatible; kept separate from any header that would
// drag <mutex> into the hot-path translation units.
class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.lock(); }
  ~SpinLockGuard() { lock_.unlock(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_SPINLOCK_H_
