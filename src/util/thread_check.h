// Debug-build owning-thread assertion for single-threaded components.
//
// Threading contract of this library: ObddManager and SddManager are
// single-threaded — one thread owns a manager and performs every
// operation on it (the serve/ layer enforces this by giving each shard
// worker its own managers). The only object shared between manager
// threads is the process-wide WidthCache, which carries its own mutex.
//
// A ThreadChecker binds to the first thread that calls Check() and
// aborts (CTSDD_CHECK) if any other thread calls it afterwards, catching
// accidental cross-thread sharing in debug builds before it corrupts an
// arena or a unique table.
//
// Exec-managed escape: inside a parallel region (exec/ work-stealing
// apply/compile), the component is *deliberately* shared — the concurrent
// unique-table and lock-striped cache paths carry the synchronization.
// A ParallelRegion guard suspends the single-owner assertion for exactly
// the region's extent (guards nest), so the assertion stays armed
// everywhere else: any cross-thread touch outside an exec-managed region
// still aborts. Leaving the outermost region releases ownership (the
// next Check() rebinds).
//
// Release builds (NDEBUG) compile the whole thing to nothing.

#ifndef CTSDD_UTIL_THREAD_CHECK_H_
#define CTSDD_UTIL_THREAD_CHECK_H_

#ifndef NDEBUG
#include <atomic>
#include <thread>

#include "util/logging.h"
#endif

namespace ctsdd {

#ifndef NDEBUG

class ThreadChecker {
 public:
  void Check() const {
    if (shared_depth_.load(std::memory_order_relaxed) > 0) return;
    const std::thread::id self = std::this_thread::get_id();
    // Atomic bind: two unbound-state racers must not both "win" through
    // an unsynchronized write — the checker's own detection would then
    // hinge on a data race. compare_exchange makes exactly one thread
    // the owner and sends the other into the CHECK below.
    std::thread::id expected{};
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;
    }
    CTSDD_CHECK(expected == self)
        << "single-threaded component used from a second thread";
  }

  // Shared-mode escape (see ParallelRegion below). Nestable.
  void BeginShared() const {
    shared_depth_.fetch_add(1, std::memory_order_relaxed);
  }
  void EndShared() const {
    if (shared_depth_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      // Release ownership: the next single-threaded Check() rebinds.
      owner_.store(std::thread::id{}, std::memory_order_relaxed);
    }
  }

 private:
  mutable std::atomic<std::thread::id> owner_{};
  mutable std::atomic<int> shared_depth_{0};
};

#else  // NDEBUG

class ThreadChecker {
 public:
  void Check() const {}
  void BeginShared() const {}
  void EndShared() const {}
};

#endif  // NDEBUG

// RAII shared-mode window for a ThreadChecker: while at least one
// ParallelRegion is live, Check() passes on every thread (the exec layer
// owns synchronization there); when the last one ends, ownership resets
// and the single-owner assertion re-arms for whoever touches the
// component next. No-op in release builds, like the checker itself.
class ParallelRegion {
 public:
  explicit ParallelRegion(const ThreadChecker& checker) : checker_(&checker) {
    checker_->BeginShared();
  }
  ~ParallelRegion() { checker_->EndShared(); }

  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

 private:
  const ThreadChecker* checker_;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_THREAD_CHECK_H_
