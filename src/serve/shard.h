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
// a death (thread exited unbidden) from outside. A request may be
// dispatched more than once — a hedge copy to a sibling shard, or a
// supervisor failing it typed when its shard is torn down — so the
// request/response slots live in a shared, claim-guarded JobState:
// exactly one completer wins the atomic claim and fills the response,
// and the winner cancels every other copy's in-flight compile budget.

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

// Shared completion record for one request. Every dispatched copy
// (primary shard job, hedge copy, supervisor fail-over) holds a
// reference; the request/response slots point into the batch
// submitter's frame, which blocks on (remaining, done_mu, done_cv)
// until every response is filled — so they are valid exactly until the
// claim winner decrements `remaining`.
struct JobState {
  QueryRequest request;  // owned copy: outlives the submitter's loop frame
  QueryResponse* response = nullptr;
  PlanKey key;  // signatures precomputed by the router
  int primary_shard = -1;
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
  // every dispatched copy roots its spans under the same trace id, and
  // the claim winner emits the terminal async end event in Publish.
  obs::TraceContext trace;
  double submit_ts_us = 0;  // TraceNowUs() at admission, for queue.wait
  std::atomic<int>* remaining = nullptr;
  std::mutex* done_mu = nullptr;
  std::condition_variable* done_cv = nullptr;

  // First completer wins; every other copy observes `claimed` and
  // discards its result.
  std::atomic<bool> claimed{false};
  // At most one hedge copy per request (set by the supervisor when it
  // collects the candidate).
  std::atomic<bool> hedged{false};

  // In-flight compile budgets of the dispatched copies (slot 0 =
  // primary shard, slot 1 = hedge), registered around the compile under
  // `budget_mu` so the claim winner can cancel a loser's stack-allocated
  // budget without racing its destruction.
  std::mutex budget_mu;
  WorkBudget* budgets[2] = {nullptr, nullptr};

  // Registers (or, with null, deregisters) a copy's compile budget. If
  // the job was claimed while the budget was being set up, it is
  // cancelled immediately — closing the race with a winner that
  // cancelled before registration.
  void RegisterBudget(int side, WorkBudget* budget) {
    std::lock_guard<std::mutex> lock(budget_mu);
    budgets[side] = budget;
    if (budget != nullptr && claimed.load(std::memory_order_acquire)) {
      budget->Cancel(StatusCode::kCancelled);
    }
  }

  // Completion happens in three steps so the winner can finish its
  // bookkeeping between winning and waking the submitter (a stats()
  // call racing the batch return must already see the request counted):
  //   if (TryClaim()) { CancelLoserBudgets(...); <account>; Publish(r); }

  // Wins or loses the one claim. A loser discards its result.
  bool TryClaim() { return !claimed.exchange(true, std::memory_order_acq_rel); }

  // Winner-only: cancels every still-registered copy's budget with
  // `loser_reason` (duplicate work dies through WorkBudget::Cancel).
  // Returns whether a live budget was actually cancelled.
  bool CancelLoserBudgets(StatusCode loser_reason) {
    bool cancelled_any = false;
    std::lock_guard<std::mutex> lock(budget_mu);
    for (WorkBudget*& budget : budgets) {
      if (budget != nullptr) {
        budget->Cancel(loser_reason);
        cancelled_any = true;
        budget = nullptr;
      }
    }
    return cancelled_any;
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

// A unit of work handed to a shard.
struct ShardJob {
  std::shared_ptr<JobState> state;
  bool is_hedge = false;
};

class ShardWorker {
 public:
  // `exec_pool` (optional, may be null) is the service-wide work-stealing
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
  bool Submit(const ShardJob& job, double* retry_after_ms);

  // The shard's memory account (root of its compiles' and plan cache's
  // accounting subtree); chains to the service governor when one is
  // configured. Byte reads are thread-safe.
  const MemAccount& mem_account() const { return account_; }

  // Adaptive hedge threshold for this shard: latency EWMA plus two
  // standard deviations (of the same smoothing window), clamped to
  // [floor_ms, 8 * floor_ms] so a cold or misbehaving estimate can
  // neither hedge instantly nor never. Thread-safe (supervisor reads it
  // each scan).
  double AdaptiveHedgeMs(double floor_ms) const;

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
  // shed), steals every queued job into `*drained`, and reports the
  // in-flight job (state left null when idle). The caller fails the
  // stolen jobs typed; the worker thread exits once its current job —
  // if any — finishes or its budget is cancelled.
  void Retire(std::vector<ShardJob>* drained, ShardJob* in_flight);

  // Collects jobs submitted before `cutoff` that are still unclaimed and
  // not yet hedged, marking them hedged. Called by the supervisor.
  void CollectHedgeCandidates(std::chrono::steady_clock::time_point cutoff,
                              std::vector<std::shared_ptr<JobState>>* out);

  // Fault-injection hooks, to be called from a fault action running on
  // this worker's thread: make the worker thread exit before its next
  // job (abandoning the current one), or trip the budget of the compile
  // currently running on this thread (simulating budget exhaustion or
  // external cancellation mid-compile).
  static void RequestDeathOnCurrentThread();
  static void TripActiveBudgetOnCurrentThread(StatusCode code);

 private:
  void Loop();
  void Process(const ShardJob& job);
  // Delivers `response` through the job's claim; on a win, records
  // latency and counts the outcome.
  void FinishJob(const ShardJob& job, QueryResponse& response, double ms);
  void Beat() { progress_.fetch_add(1, std::memory_order_relaxed); }
  // Compiles the request's plan, enforcing the compile budget/deadline
  // and running the degradation ladder: requested route first; on a
  // node-budget abort, the alternate route once with a fresh budget; then
  // the typed over-budget status. Deadline/cancel trips never retry.
  // Reports double-route budget exhaustion into the quarantine.
  StatusOr<CompiledPlan> CompilePlan(const ShardJob& job);
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
  // Squared-deviation EWMA of the same latency stream (same 0.8/0.2
  // smoothing), read by the supervisor for the adaptive hedge threshold.
  std::atomic<double> ewma_var_ms2_{0.0};

  // Supervision heartbeats (see accessors above).
  std::atomic<uint64_t> progress_{0};
  std::atomic<bool> busy_{false};
  std::atomic<bool> exited_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ShardJob> queue_;
  // In-flight job (guarded by mu_): set at dequeue, cleared after
  // completion; Retire reports it so the supervisor can fail it typed.
  std::shared_ptr<JobState> current_;
  bool current_is_hedge_ = false;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_SHARD_H_
