// Work-stealing fork-join pool: the parallel runtime behind the SDD
// semantic compiler's cofactor-class fork.
//
// Shape: the pool owns `workers() - 1` background threads; the thread that
// enters a parallel operation participates as the final worker, so
// TaskPool(1) spawns nothing and ParallelFor runs inline — the sequential
// path with zero synchronization, which is what keeps the 1-worker
// configuration at sequential throughput.
//
// Every participating thread (background worker or an external thread
// that forked) holds a *slot*: a stable small integer indexing its
// Chase–Lev deque (exec/deque.h).
// Background workers own slots [0, workers()-1); external threads claim
// slots lazily from [workers()-1, kMaxSlots) the first time they touch
// the pool and keep them for the thread's lifetime.
//
// Fork/join protocol: a Task lives on the forking frame's stack. Fork
// pushes it onto the current slot's deque; Join pops it back and runs it
// inline when no thief intervened (the overwhelmingly common case at
// depth cutoffs), otherwise helps — running other tasks — until the thief
// reports completion. Tasks must not throw; a task may itself fork
// (nested joins run on the same slot, which is why per-slot client state
// must be stack-disciplined, not exclusive).
//
// Determinism is the *client's* property, not the scheduler's: the
// managers' results are canonical (hash-consed), so any interleaving
// returns pointer-identical roots. The pool only guarantees each task
// runs exactly once and Join's completion edge is a release/acquire pair.

#ifndef CTSDD_EXEC_TASK_POOL_H_
#define CTSDD_EXEC_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/deque.h"
#include "obs/trace.h"

namespace ctsdd::exec {

// A forkable unit of work. Stack-allocated by the forker; Run() is called
// exactly once, on whichever thread removes the task from a deque. done()
// flips with release ordering after Run() returns.
class Task {
 public:
  virtual ~Task() = default;
  // Executes the task and publishes completion.
  void Execute() {
    Run();
    done_.store(true, std::memory_order_release);
  }
  bool done() const { return done_.load(std::memory_order_acquire); }

  // Tracing hand-off, stamped by Fork when the tracer is armed: the
  // forker's span context (so a task stolen by another thread stays
  // parented under the forking computation) and the forking slot (so
  // the executing side can tell a steal from a local pop).
  obs::TraceContext trace_ctx;
  int forked_slot = -1;

 protected:
  virtual void Run() = 0;

 private:
  std::atomic<bool> done_{false};
};

class TaskPool {
 public:
  // Hard bound on simultaneously registered participants (background
  // workers + external threads that ever forked through this pool).
  static constexpr int kMaxSlots = 64;

  // `workers` is the total parallelism (>= 1): workers - 1 background
  // threads are spawned; the forking thread is the last participant.
  explicit TaskPool(int workers);
  ~TaskPool();  // joins background threads (all forked work must be done)

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int workers() const { return workers_; }

  // True when forking can actually buy parallelism (workers() > 1).
  bool parallel() const { return workers_ > 1; }

  // The calling thread's slot in [0, kMaxSlots), claiming one if this
  // is the thread's first contact with the pool.
  int CurrentSlot();

  // Pushes `task` onto the calling thread's deque, making it stealable.
  void Fork(Task* task);

  // Retrieves the most recent un-stolen task forked by this thread, or
  // nullptr if thieves drained the deque. The caller runs the returned
  // task inline (it is always the caller's own task, by LIFO discipline:
  // everything this frame forked after it has already been joined).
  Task* PopLocal();

  // Blocks until `task` completes, running other pool tasks while
  // waiting (work-stealing join — never idles while work exists).
  void Join(Task* task);

  // Runs one pending task from any deque if one can be claimed. Returns
  // false when no task was found.
  bool TryRunOne(uint64_t* rng_state);

  // Executes `task`, wrapped in an "exec.task" span when the tracer is
  // armed (parented under the forker's captured context; the `stolen`
  // arg distinguishes cross-slot steals from local pops). Every task
  // execution path — inline reclaim, helping join, worker loop — funnels
  // through here so exec-pool work shows up in request traces.
  void RunTask(Task* task) {
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (obs::TraceArmed()) {
      obs::TraceSpan span("exec", "exec.task", task->trace_ctx);
      span.AddArg("stolen",
                  task->forked_slot >= 0 && task->forked_slot != CurrentSlot()
                      ? 1
                      : 0);
      task->Execute();
      return;
    }
    task->Execute();
  }

  // Lifetime activity counters (monotone, relaxed): every task executed
  // anywhere (workers, joins, inline reclaims), cross-slot steals that
  // yielded a task, and worker park events (cv sleeps after an idle
  // scan). Exported through the metrics registry by the serving layer.
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }

 private:
  void WorkerLoop(int slot);

  const int workers_;
  const uint64_t id_;  // distinguishes pool instances across address reuse
  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;  // one per slot
  std::vector<std::thread> threads_;

  // External-slot allocation (background workers take [0, workers_-1)).
  std::atomic<int> next_external_slot_;

  // Parking: pending_ counts forked-but-not-claimed tasks; workers sleep
  // on cv_ when a scan finds nothing and wake when Fork raises pending_.
  std::atomic<int64_t> pending_{0};
  std::atomic<int> sleepers_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;

  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> parks_{0};
};

// Invokes fn(i) for i in [0, n), fanning out across the pool. Blocks
// until every index completes. fn must be safe to run concurrently with
// itself on distinct indices. When `cancel` is non-null and becomes
// true, indices that have not started yet are skipped (their tasks
// still drain through the deques, so the join remains prompt and
// deterministic); indices already running finish normally.
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
  struct IndexTask final : public Task {
    const Fn* fn = nullptr;
    const std::atomic<bool>* cancel = nullptr;
    size_t index = 0;
    void Run() override {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        return;
      }
      (*fn)(index);
    }
  };
  std::vector<IndexTask> tasks(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) {
    tasks[i].fn = &fn;
    tasks[i].cancel = cancel;
    tasks[i].index = i + 1;
    pool->Fork(&tasks[i]);
  }
  if (cancel == nullptr || !cancel->load(std::memory_order_relaxed)) fn(0);
  // Reclaim un-stolen tasks LIFO, then help until the stolen ones land.
  for (;;) {
    Task* t = pool->PopLocal();
    if (t == nullptr) break;
    pool->RunTask(t);
  }
  for (size_t i = 0; i + 1 < n; ++i) pool->Join(&tasks[i]);
}

template <typename Fn>
void ParallelFor(TaskPool* pool, size_t n, const Fn& fn) {
  ParallelFor(pool, n, nullptr, fn);
}

}  // namespace ctsdd::exec

#endif  // CTSDD_EXEC_TASK_POOL_H_
