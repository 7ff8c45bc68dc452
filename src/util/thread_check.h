// Debug-build owning-thread assertion for single-threaded components.
//
// Threading contract of this library: ObddManager and SddManager are
// single-owner — one thread owns a manager and performs every operation
// on it, with no exception (the serve/ layer gives each shard worker its
// own managers, and the SDD semantic compiler's pool workers compute
// partitions without touching the manager). The only object shared
// between manager threads is the process-wide WidthCache, which carries
// its own mutex.
//
// A ThreadChecker binds to the first thread that calls Check() and
// aborts (CTSDD_CHECK) if any other thread calls it afterwards, catching
// accidental cross-thread sharing in debug builds before it corrupts an
// arena or a unique table.
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

 private:
  mutable std::atomic<std::thread::id> owner_{};
};

#else  // NDEBUG

class ThreadChecker {
 public:
  void Check() const {}
};

#endif  // NDEBUG

}  // namespace ctsdd

#endif  // CTSDD_UTIL_THREAD_CHECK_H_
