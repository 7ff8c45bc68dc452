// Fork-join pool: the parallel runtime behind the SDD semantic
// compiler's cofactor-class fork. Its one primitive is ParallelFor.
//
// Shape: the pool owns `workers() - 1` background threads; the thread that
// calls ParallelFor participates as the final worker, so TaskPool(1)
// spawns nothing and ParallelFor runs inline — the sequential path with
// zero synchronization, which is what keeps the 1-worker configuration at
// sequential throughput.
//
// Batches: a forked ParallelFor publishes one batch record on the
// forker's stack (the callable, n, an atomic next-index counter and a
// finished count) in the pool's list of open batches. The forker runs
// index 0 inline, then claims its own remaining indices. Idle workers,
// and forkers waiting on a join, claim indices from the oldest open
// batch — the shallowest and largest work. A batch leaves the list once
// every index has been claimed, and its forker returns once every
// claimed index has finished; a worker touches the record only between
// claiming an index and finishing it, so the record never outlives a
// reader. Workers park on a condition variable while no listed batch
// has an unclaimed index.
// fn must not throw; it may itself call ParallelFor (a waiting forker
// helps other batches on top of its own frame).
//
// Determinism is the *client's* property, not the scheduler's: the
// managers' results are canonical (hash-consed), so any interleaving
// returns pointer-identical roots. The pool only guarantees each index
// runs at most once (exactly once unless cancelled) and that fn(i)'s
// effects happen-before ParallelFor returns.

#ifndef CTSDD_EXEC_TASK_POOL_H_
#define CTSDD_EXEC_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace ctsdd::exec {

class TaskPool {
 public:
  // `workers` is the total parallelism (>= 1): workers - 1 background
  // threads are spawned; the forking thread is the last participant.
  explicit TaskPool(int workers);
  ~TaskPool();  // joins background threads (all forked work must be done)

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int workers() const { return workers_; }

  // True when forking can actually buy parallelism (workers() > 1).
  bool parallel() const { return workers_ > 1; }

  // ParallelFor's forked path: runs run(fn, i) for i in [0, n) across the
  // pool, with the calling thread as the batch's forker.
  using IndexFn = void (*)(const void* fn, size_t i);
  void ForkJoin(size_t n, const std::atomic<bool>* cancel, IndexFn run,
                const void* fn);

  // Lifetime activity counters (monotone, relaxed): indices handed to the
  // pool (n - 1 per forked ParallelFor; index 0 runs inline), indices run
  // by a thread other than their batch's forker, and worker park events
  // (condition-variable sleeps with no unclaimed index). Exported through the
  // metrics registry by the serving layer.
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }

 private:
  struct Batch;

  // Claims an unclaimed index of the oldest open batch (mu_ held).
  Batch* ClaimLocked(size_t* index);
  // Runs index i of `batch` (an "exec.task" span when the tracer is
  // armed) and counts it finished: the caller's last touch of `batch`.
  void RunIndex(Batch* batch, size_t i);
  void WorkerLoop(int index);

  const int workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Batch*> open_;  // oldest first (guarded by mu_)
  int sleepers_ = 0;          // guarded by mu_
  bool stopping_ = false;     // guarded by mu_

  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> parks_{0};
};

// Invokes fn(i) for i in [0, n), fanning out across the pool. Blocks
// until every index completes. fn must be safe to run concurrently with
// itself on distinct indices. When `cancel` is non-null and becomes
// true, indices that have not started yet are skipped (they are still
// claimed, so the join stays prompt); indices already running finish
// normally.
template <typename Fn>
void ParallelFor(TaskPool* pool, size_t n, const std::atomic<bool>* cancel,
                 const Fn& fn) {
  if (n == 0) return;
  if (pool == nullptr || !pool->parallel() || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        return;
      }
      fn(i);
    }
    return;
  }
  pool->ForkJoin(
      n, cancel,
      [](const void* f, size_t i) { (*static_cast<const Fn*>(f))(i); }, &fn);
}

template <typename Fn>
void ParallelFor(TaskPool* pool, size_t n, const Fn& fn) {
  ParallelFor(pool, n, nullptr, fn);
}

}  // namespace ctsdd::exec

#endif  // CTSDD_EXEC_TASK_POOL_H_
