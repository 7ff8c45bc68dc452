// One shard of the query service: a worker thread owning its plan cache.
//
// The managers are single-threaded by contract, so the shard is the unit
// of both concurrency and memory accounting. Plans are tapes: a cold
// compile builds a fresh manager for its variable order (OBDD) or vtree
// (SDD), linearizes the diagram into the plan's WMC tape, and destroys the
// manager before the request is answered. The plan cache
// (serve/plan_cache.h) therefore holds no node, and between requests a
// shard holds no manager at all. (The one structure shards share, the
// process-wide WidthCache, carries its own mutex.)
//
// Supervision surface: the worker stamps an atomic progress counter at
// every job phase and flags busy/exited, so the service's supervisor can
// detect a hang (busy with stale progress past the heartbeat window) or
// a death (thread exited unbidden) from outside. A request has two
// possible completers — its worker, or the supervisor failing it typed
// when its shard is torn down — so the request/response slots live in a
// shared, claim-guarded JobState: exactly one completer wins the atomic
// claim and fills the response, and a winning supervisor cancels the
// worker's in-flight compile budget.

#ifndef CTSDD_SERVE_SHARD_H_
#define CTSDD_SERVE_SHARD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit.h"
#include "exec/task_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/plan_cache.h"
#include "serve/quarantine.h"
#include "serve/query_service.h"
#include "serve/serve_stats.h"
#include "util/budget.h"

namespace ctsdd {

// Shared completion record for one request, held by its shard (queued
// or in flight) and, after a restart, by the supervisor failing it. The
// request/response slots point into the batch submitter's frame, which
// blocks on (remaining, done_mu, done_cv) until every response is
// filled — so they are valid exactly until the claim winner decrements
// `remaining`.
struct JobState {
  QueryRequest request;  // owned copy: outlives the submitter's loop frame
  QueryResponse* response = nullptr;
  PlanKey key;  // signatures precomputed by the router
  // Absolute deadline (from the request's or the service's default
  // deadline_ms, stamped at admission). Checked at dequeue — a job that
  // expired while queued fails without compiling — and threaded into the
  // compile's WorkBudget so in-flight work aborts at the deadline too.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
  std::chrono::steady_clock::time_point submitted_at;
  // True when quarantine admission let this request through as a parole
  // trial; workers skip the quarantine re-check for it.
  bool is_parole_trial = false;
  // Tracing hand-off (zero when the tracer was disarmed at admission):
  // the worker roots its spans under the request's trace id, and the
  // claim winner emits the terminal async end event in Publish.
  obs::TraceContext trace;
  double submit_ts_us = 0;  // TraceNowUs() at admission, for queue.wait
  std::atomic<int>* remaining = nullptr;
  std::mutex* done_mu = nullptr;
  std::condition_variable* done_cv = nullptr;

  // First completer wins; the other observes `claimed` and discards its
  // result.
  std::atomic<bool> claimed{false};

  // The worker's in-flight compile budget, registered around each compile
  // under `budget_mu` so a supervisor failing the job on restart can
  // cancel the stack-allocated budget without racing its destruction.
  std::mutex budget_mu;
  WorkBudget* budget = nullptr;

  // Registers (or, with null, deregisters) the worker's compile budget.
  // If the job was claimed while the budget was being set up, it is
  // cancelled immediately — closing the race with a supervisor that
  // cancelled before registration.
  void RegisterBudget(WorkBudget* compile_budget) {
    std::lock_guard<std::mutex> lock(budget_mu);
    budget = compile_budget;
    if (budget != nullptr && claimed.load(std::memory_order_acquire)) {
      budget->Cancel(StatusCode::kUnavailable);
    }
  }

  // Completion happens in three steps so the winner can finish its
  // bookkeeping between winning and waking the submitter (a stats()
  // call racing the batch return must already see the request counted):
  //   if (TryClaim()) { <account>; Publish(r); }

  // Wins or loses the one claim. A loser discards its result.
  bool TryClaim() { return !claimed.exchange(true, std::memory_order_acq_rel); }

  // Supervisor-only, after winning the claim: cancels the worker's
  // registered compile budget, so a budget-bound stall unwinds instead of
  // running to completion.
  void CancelBudget() {
    std::lock_guard<std::mutex> lock(budget_mu);
    if (budget != nullptr) budget->Cancel(StatusCode::kUnavailable);
    budget = nullptr;
  }

  // Winner-only: fills the response slot and releases the submitter.
  void Publish(const QueryResponse& result) {
    *response = result;
    // Exactly-once terminal span of the request's async track: only the
    // claim winner reaches Publish.
    if (trace.trace_id != 0) {
      obs::TraceAsyncEnd("request", "request", trace.trace_id);
    }
    // Decrement and notify inside the critical section: the submitter's
    // wait predicate can then only observe zero after acquiring the
    // mutex this thread holds, so it cannot wake, return, and destroy
    // the mutex/condvar while this thread still touches them.
    std::lock_guard<std::mutex> lock(*done_mu);
    if (remaining->fetch_sub(1) == 1) done_cv->notify_all();
  }
};

class ShardWorker {
 public:
  // `exec_pool` (optional, may be null) is the service-wide fork-join
  // pool lent to this shard's managers for cold compiles; the shard
  // attaches it to every manager it builds. It speeds up only semantic
  // SDD compiles (at most kSemanticCircuitMaxVars variables); apply
  // operations ignore it.
  // `quarantine` (may be null) is the service-level poison negative
  // cache: workers re-check it before a cold compile and report compile
  // outcomes into it. `metrics` holds the service's counters, resident
  // gauges and latency histograms; the worker bumps them as events
  // happen. `mem_parent` is the service's memory account, parent of this
  // shard's. `flight` (may be null) is the service's flight recorder —
  // the worker appends one record per claim-winning completion and
  // raises quarantine-strike / memory-denial anomalies. `plan_stats`
  // (may be null) is the service's per-plan telemetry registry: every
  // compiled plan gets a stats block published there and merged back on
  // eviction.
  ShardWorker(int shard_id, const ServeOptions& options,
              ServeMetrics* metrics, MemAccount* mem_parent,
              obs::FlightRecorder* flight, exec::TaskPool* exec_pool,
              Quarantine* quarantine, PlanStatsRegistry* plan_stats = nullptr);
  // Drains the queue, joins the thread, and retracts the worker's share
  // of the resident gauges.
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  // Enqueues a job for the worker thread (thread-safe). Returns false —
  // shedding the job — when the queue is at max_queue_depth or the
  // worker is retiring; the caller gets a backoff hint (queue depth x
  // smoothed service time, clamped to ServeOptions::retry_after_max_ms)
  // in `*retry_after_ms` and must complete and count the response itself.
  bool Submit(std::shared_ptr<JobState> job, double* retry_after_ms);

  // The shard's memory account (root of its compiles' and plan cache's
  // accounting subtree); chains to the service governor when one is
  // configured. Byte reads are thread-safe.
  const MemAccount& mem_account() const { return account_; }

  // --- Supervision surface (all thread-safe) ---

  // Progress counter stamped at every job phase; a busy worker whose
  // progress does not advance within the heartbeat window is hung.
  uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }
  // True while a job is being processed (between dequeue and completion).
  bool busy() const { return busy_.load(std::memory_order_acquire); }
  // Jobs waiting in the shard queue right now (thread-safe; /statusz).
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  // True once the worker thread has returned — after a requested drain,
  // or unbidden (a death fault); the supervisor treats an exit it did
  // not request as a crash.
  bool exited() const { return exited_.load(std::memory_order_acquire); }

  // Begins teardown: marks the worker stopping (subsequent Submits
  // shed) and moves the in-flight job, if any, and every queued job into
  // `*orphans`. The caller fails them typed; the worker thread exits once
  // its current job — if any — finishes or its budget is cancelled.
  void Retire(std::vector<std::shared_ptr<JobState>>* orphans);

  // Fault-injection hooks, to be called from a fault action running on
  // this worker's thread: make the worker thread exit before its next
  // job (abandoning the current one), or trip the budget of the compile
  // currently running on this thread (simulating budget exhaustion or
  // external cancellation mid-compile).
  static void RequestDeathOnCurrentThread();
  static void TripActiveBudgetOnCurrentThread(StatusCode code);

 private:
  void Loop();
  void Process(JobState& state);
  // Delivers `response` through the job's claim; on a win, records
  // latency and counts the outcome.
  void FinishJob(JobState& state, QueryResponse& response, double ms);
  void Beat() { progress_.fetch_add(1, std::memory_order_relaxed); }
  // Compiles the request's plan, enforcing the compile budget/deadline
  // and running the degradation ladder: requested route first; on a
  // node-budget abort, the alternate route once with a fresh budget; then
  // the typed over-budget status. Deadline/cancel trips never retry.
  // Reports double-route budget exhaustion into the quarantine.
  StatusOr<CompiledPlan> CompilePlan(JobState& state);
  // One budgeted compile on `route`, in a manager built for it and
  // destroyed on return. On abort the budget's typed status is returned.
  StatusOr<CompiledPlan> CompileRoute(const QueryRequest& request,
                                      PlanRoute route, const Circuit& circuit,
                                      std::vector<int> vars,
                                      WorkBudget* budget);
  // CompileRoute's route-independent steps: lends `manager` the exec pool
  // and `account`, attaches `budget` and registers the compile with the
  // governor around `compile()`, and records the manager's node count
  // into the peak gauge. Returns the root, or on abort the budget's
  // status.
  template <class M, class Compile>
  StatusOr<int> CompileBudgeted(M* manager, MemAccount* account,
                                WorkBudget* budget, const Compile& compile);
  double EvaluatePlan(const CompiledPlan& plan, const QueryRequest& request);
  // Critical-tier shed, run after every cold compile and on a critical
  // admission reject: evicts LRU plans in batches while the governor
  // stays critical.
  void ShedPlansUnderPressure();
  // Backoff hint attached to memory-pressure rejects.
  double MemRetryHintMs() const;
  // Moves the resident gauges by this worker's change since the last
  // sync. Runs before every completion is published, so a stats() call
  // racing the batch return sees the request's residency.
  void SyncResidentGauges();

  const int id_;
  const ServeOptions options_;
  ServeMetrics* const metrics_;        // shared
  obs::FlightRecorder* const flight_;  // shared, may be null
  exec::TaskPool* const exec_pool_;    // shared, may be null
  Quarantine* const quarantine_;       // shared, may be null
  PlanStatsRegistry* const plan_stats_;  // shared, may be null

  // Shard memory account: parent of each compile's manager account and
  // the plan cache's charges; chains to the service account (and through
  // it the governor). Declared before the plan cache so everything
  // releasing bytes into it is destroyed first.
  MemAccount account_;

  // Worker-thread state (no locking: only the worker touches it).
  PlanCache plans_;
  // Set by CompilePlan when the compile it just ran was tripped by the
  // memory governor (worker-thread local; read by Process immediately
  // after the CompilePlan call).
  bool last_compile_mem_pressure_ = false;
  // EvaluatePlan's scratch (worker-thread local), reused across requests
  // so a warm request allocates nothing: the request's weight per tape
  // slot, and one value per tape entry.
  std::vector<double> slot_probs_;
  std::vector<double> tape_values_;
  // Most nodes any one compile's manager held (worker-thread state).
  int64_t peak_nodes_ = 0;
  // This worker's current shares of the resident gauges (worker-thread
  // state; the destructor retracts them after the join).
  int64_t peak_share_ = 0;
  int64_t plans_share_ = 0;
  // Flight-record assembly for the request being processed (worker-
  // thread local): Process fills the identity and phase fields, FinishJob
  // completes and appends it on a claim win.
  obs::FlightRecord pending_record_;
  uint64_t bytes_at_request_start_ = 0;
  // Claim wins since the outlier bar was last refreshed from the
  // latency histogram.
  uint32_t wins_since_outlier_refresh_ = 0;
  // Written by the worker thread, read by Submit on client threads for
  // the retry-after hint.
  std::atomic<double> ewma_service_ms_{1.0};

  // Supervision heartbeats (see accessors above).
  std::atomic<uint64_t> progress_{0};
  std::atomic<bool> busy_{false};
  std::atomic<bool> exited_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<JobState>> queue_;
  // In-flight job (guarded by mu_): set at dequeue, cleared after
  // completion; Retire reports it so the supervisor can fail it typed.
  std::shared_ptr<JobState> current_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_SHARD_H_
