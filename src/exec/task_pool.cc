#include "exec/task_pool.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"

namespace ctsdd::exec {

// One forked ParallelFor, on its forker's stack. `next` is claimed with
// fetch_add (by the forker without the lock, by helpers under mu_ while
// the batch is listed); `finished` counts indices in [1, n) that are done
// or skipped, and its release increment is a helper's last access.
struct TaskPool::Batch {
  IndexFn run;
  const void* fn;
  size_t n;
  const std::atomic<bool>* cancel;
  obs::TraceContext trace_ctx;
  std::thread::id forker;
  std::atomic<size_t> next{1};
  std::atomic<size_t> finished{0};

  bool Cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

TaskPool::TaskPool(int workers) : workers_(workers < 1 ? 1 : workers) {
  threads_.reserve(workers_ - 1);
  for (int i = 0; i + 1 < workers_; ++i) {
    threads_.emplace_back(&TaskPool::WorkerLoop, this, i);
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

TaskPool::Batch* TaskPool::ClaimLocked(size_t* index) {
  for (Batch* b : open_) {
    if (b->next.load(std::memory_order_relaxed) >= b->n) continue;
    const size_t i = b->next.fetch_add(1, std::memory_order_relaxed);
    if (i < b->n) {
      *index = i;
      return b;
    }
  }
  return nullptr;
}

void TaskPool::RunIndex(Batch* batch, size_t i) {
  const bool stolen = batch->forker != std::this_thread::get_id();
  if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
  if (!batch->Cancelled()) {
    if (obs::TraceArmed()) {
      obs::TraceSpan span("exec", "exec.task", batch->trace_ctx);
      span.AddArg("stolen", stolen ? 1 : 0);
      batch->run(batch->fn, i);
    } else {
      batch->run(batch->fn, i);
    }
  }
  batch->finished.fetch_add(1, std::memory_order_release);
}

void TaskPool::ForkJoin(size_t n, const std::atomic<bool>* cancel,
                        IndexFn run, const void* fn) {
  Batch batch{run, fn, n, cancel, {}, std::this_thread::get_id()};
  if (obs::TraceArmed()) batch.trace_ctx = obs::CurrentContext();
  tasks_run_.fetch_add(n - 1, std::memory_order_relaxed);
  int wake = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.push_back(&batch);
    wake = static_cast<int>(std::min<size_t>(sleepers_, n - 1));
  }
  for (int k = 0; k < wake; ++k) cv_.notify_one();

  if (!batch.Cancelled()) run(fn, 0);
  for (;;) {
    const size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    RunIndex(&batch, i);
  }
  // Every index is claimed: unlist the batch so no helper can reach it,
  // then help the oldest open batches until the claimed ones finish.
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.erase(std::find(open_.begin(), open_.end(), &batch));
  }
  while (batch.finished.load(std::memory_order_acquire) < n - 1) {
    Batch* other = nullptr;
    size_t i = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      other = ClaimLocked(&i);
    }
    if (other != nullptr) {
      RunIndex(other, i);
    } else {
      // The unfinished indices run elsewhere: yield so their threads get
      // the core (essential on few-core hosts).
      std::this_thread::yield();
    }
  }
}

void TaskPool::WorkerLoop(int index) {
  obs::SetCurrentThreadName("exec-" + std::to_string(index));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return;
    size_t i = 0;
    Batch* batch = ClaimLocked(&i);
    if (batch == nullptr) {
      parks_.fetch_add(1, std::memory_order_relaxed);
      ++sleepers_;
      cv_.wait(lock);
      --sleepers_;
      continue;
    }
    lock.unlock();
    RunIndex(batch, i);
    lock.lock();
  }
}

}  // namespace ctsdd::exec
