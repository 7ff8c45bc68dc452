// WorkBudget: a cooperative resource budget for long-running compiles.
//
// A budget carries up to three independent limits — a node-allocation
// budget, a wall-clock deadline, and an external cancel flag — and trips
// exactly once, remembering the first reason. Hot paths interact with it
// in two cheap ways:
//
//   - AcquireLease(want): charge up to `want` node allocations against
//     the budget in one atomic fetch_add. Callers amortize by leasing a
//     block (e.g. budget/16, capped) and decrementing a thread-local
//     counter, so the shared atomic is touched once per lease, not once
//     per node.
//   - CheckPoint(): amortized deadline poll — the (relatively expensive)
//     steady_clock read runs only every 256th call.
//
// Both return "keep going?" and never block. Once tripped, every
// subsequent lease is denied and `tripped()` / `token()` read true, so
// concurrent workers (the SDD semantic compiler's planners) all observe
// the abort promptly.
// The tripped flag is exposed as a raw `const std::atomic<bool>*` token
// so cancellation can be threaded into exec::ParallelFor without the
// callee knowing about budgets.
//
// Thread-safety: all members are atomics; a single WorkBudget may be
// polled and charged from any number of threads concurrently. Cancel()
// may be called from outside the compiling thread(s).

#ifndef CTSDD_UTIL_BUDGET_H_
#define CTSDD_UTIL_BUDGET_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/trace.h"
#include "util/status.h"

namespace ctsdd {

class WorkBudget {
 public:
  // `node_budget` = 0 means unlimited nodes; `deadline_ms` <= 0 means no
  // deadline. A budget with both unlimited still honours Cancel().
  explicit WorkBudget(uint64_t node_budget, double deadline_ms = 0)
      : node_budget_(node_budget),
        has_deadline_(deadline_ms > 0),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          deadline_ms > 0 ? deadline_ms : 0))) {}

  WorkBudget(const WorkBudget&) = delete;
  WorkBudget& operator=(const WorkBudget&) = delete;

  // Trips the budget from outside. The default reason models a client
  // disconnect; callers that abort for a different typed cause (a
  // supervisor failing a hung shard's in-flight compile with
  // kUnavailable, a fault action simulating budget exhaustion with
  // kResourceExhausted) pass their own code so the unwind stays typed.
  void Cancel(StatusCode code = StatusCode::kCancelled) { Trip(code); }

  bool tripped() const {
    return tripped_flag_.load(std::memory_order_relaxed);
  }

  // Address of the tripped flag, for exec::ParallelFor-style cancel
  // tokens. Valid for the lifetime of the budget.
  const std::atomic<bool>* token() const { return &tripped_flag_; }

  // First trip reason, or kOk if not tripped.
  StatusCode reason() const {
    return static_cast<StatusCode>(reason_.load(std::memory_order_acquire));
  }

  // Status describing why the budget tripped (Ok if it has not).
  Status status() const {
    switch (reason()) {
      case StatusCode::kResourceExhausted:
        return Status::ResourceExhausted("node budget exhausted");
      case StatusCode::kDeadlineExceeded:
        return Status::DeadlineExceeded("compile deadline exceeded");
      case StatusCode::kCancelled:
        return Status::Cancelled("compile cancelled");
      case StatusCode::kUnavailable:
        return Status::Unavailable("compile cancelled: shard unavailable");
      default:
        return Status::Ok();
    }
  }

  // Marks this budget's trip as memory-pressure-caused (set by the
  // memory governor just before Cancel(kResourceExhausted)). Serving
  // uses the marker to keep pressure rejects out of the poison
  // quarantine: a compile denied for process memory says nothing about
  // the query. Sticky for the budget's lifetime.
  void MarkMemoryPressure() {
    memory_pressure_.store(true, std::memory_order_release);
  }
  bool memory_pressure() const {
    return memory_pressure_.load(std::memory_order_acquire);
  }

  // Binds a liveness pulse: every granted lease bumps `*pulse`. Shard
  // supervision reads the same counter as the worker's heartbeat, so a
  // long compile that is still allocating reads as progress while a
  // stalled one goes stale. Bind before handing the budget to any
  // compiling thread (binding is not synchronized against leases).
  void BindPulse(std::atomic<uint64_t>* pulse) { pulse_ = pulse; }

  // Attaches the owning request's trace context so lease grants show up
  // as span events under the request's compile span when the tracer is
  // armed. Set before handing the budget to any compiling thread.
  void SetTraceContext(obs::TraceContext ctx) { trace_ctx_ = ctx; }

  // Charges up to `want` node allocations; returns how many were
  // granted (0 if the budget is tripped or exhausted). A short grant
  // (< want) means the budget boundary was reached: the caller may
  // allocate the granted count and must re-lease afterwards.
  uint64_t AcquireLease(uint64_t want) {
    if (pulse_ != nullptr) pulse_->fetch_add(1, std::memory_order_relaxed);
    if (tripped()) return 0;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      Trip(StatusCode::kDeadlineExceeded);
      return 0;
    }
    if (node_budget_ == 0) {
      if (obs::TraceArmed()) {
        obs::TraceInstant("compile", "budget.lease", trace_ctx_, "granted",
                          want);
      }
      return want;
    }
    const uint64_t old = used_.fetch_add(want, std::memory_order_relaxed);
    if (old >= node_budget_) {
      Trip(StatusCode::kResourceExhausted);
      if (obs::TraceArmed()) {
        obs::TraceInstant("compile", "budget.exhausted", trace_ctx_, "used",
                          old);
      }
      return 0;
    }
    const uint64_t granted = std::min(want, node_budget_ - old);
    if (obs::TraceArmed()) {
      obs::TraceInstant("compile", "budget.lease", trace_ctx_, "granted",
                        granted);
    }
    return granted;
  }

  // Amortized deadline/cancel poll: cheap counter bump, with the clock
  // read every 256th call. Returns false once tripped.
  bool CheckPoint() {
    if (tripped()) return false;
    if (!has_deadline_) return true;
    if ((polls_.fetch_add(1, std::memory_order_relaxed) & 0xFF) != 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline_) {
      Trip(StatusCode::kDeadlineExceeded);
      return false;
    }
    return true;
  }

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t node_budget() const { return node_budget_; }

 private:
  void Trip(StatusCode code) {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(code),
                                    std::memory_order_acq_rel);
    tripped_flag_.store(true, std::memory_order_release);
  }

  const uint64_t node_budget_;
  const bool has_deadline_;
  const std::chrono::steady_clock::time_point deadline_;
  std::atomic<uint64_t>* pulse_ = nullptr;
  // Set while quiescent (before compile threads run); read-only after.
  obs::TraceContext trace_ctx_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint32_t> polls_{0};
  std::atomic<int> reason_{0};  // StatusCode of the first trip, 0 = none
  std::atomic<bool> tripped_flag_{false};
  std::atomic<bool> memory_pressure_{false};
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_BUDGET_H_
