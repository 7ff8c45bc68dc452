#include "serve/shard.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "circuit/eval.h"
#include "circuit/primal_graph.h"
#include "db/lineage.h"
#include "graph/exact_treewidth.h"
#include "obdd/obdd_compile.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sdd/sdd_compile.h"
#include "serve/signature.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace ctsdd {

namespace {

// Fault-action hooks run on the worker's own thread (HitSlow calls the
// armed action inline at the fault point), so thread-locals address
// "this worker" without any registry.
thread_local bool t_death_requested = false;
thread_local WorkBudget* t_active_budget = nullptr;

// Whether `plan` was compiled inside `manager`.
bool PlanIn(const CompiledPlan& plan, const void* manager) {
  return plan.obdd == manager || plan.sdd == manager;
}

}  // namespace

void ShardWorker::RequestDeathOnCurrentThread() { t_death_requested = true; }

void ShardWorker::TripActiveBudgetOnCurrentThread(StatusCode code) {
  if (t_active_budget != nullptr) t_active_budget->Cancel(code);
}

ShardWorker::ShardWorker(int shard_id, const ServeOptions& options,
                         ServeMetrics* metrics, MemAccount* mem_parent,
                         obs::FlightRecorder* flight, exec::TaskPool* exec_pool,
                         Quarantine* quarantine, PlanStatsRegistry* plan_stats)
    : id_(shard_id),
      options_(options),
      metrics_(metrics),
      flight_(flight),
      exec_pool_(exec_pool),
      quarantine_(quarantine),
      plan_stats_(plan_stats),
      account_(mem_parent),
      plans_(options.plan_cache_capacity,
             [this](const PlanKey&, CompiledPlan& plan) {
               // Unpin the plan's lineage: the released nodes become
               // garbage for the owning manager's next collection.
               if (plan.obdd) plan.obdd->ReleaseRootRef(plan.obdd_root);
               if (plan.sdd) plan.sdd->ReleaseRootRef(plan.sdd_root);
               // Only the worker thread evicts; the cache's destructor,
               // which runs after the thread exited, drops plans without
               // counting them as evictions.
               if (!exited_.load(std::memory_order_relaxed)) {
                 metrics_->plan_evictions->Add();
               }
               // Telemetry conservation: fold the evicted plan's
               // histogram and counters into the service totals before
               // the block leaves the live table. Covers every removal
               // path — LRU pressure, GC shedding, manager eviction,
               // shard restart, cache destruction.
               if (plan_stats_ != nullptr && plan.stats != nullptr) {
                 plan_stats_->OnEviction(plan.stats);
               }
             }),
      gc_interval_(std::max(1, options.gc_check_interval)),
      thread_(&ShardWorker::Loop, this) {
  // Safe after the worker thread started: no job can be submitted (and
  // so no byte charged) before this constructor returns the worker.
  plans_.SetMemAccount(&account_);
}

ShardWorker::~ShardWorker() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // The managers are bound to the (now joined) worker thread; detach so
  // the destroying thread may release the cached plans' root refs.
  ForEachManager([](auto* manager) { manager->DetachOwningThread(); });
  // Retract before the plan cache and managers are destroyed, so the
  // gauges never count what the plan telemetry no longer lists.
  metrics_->live_nodes->Add(-live_share_);
  metrics_->peak_live_nodes->Add(-peak_share_);
  metrics_->plan_cache_size->Add(-plans_share_);
}

bool ShardWorker::Submit(const ShardJob& job, double* retry_after_ms) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && (options_.max_queue_depth == 0 ||
                       queue_.size() < options_.max_queue_depth)) {
      queue_.push_back(job);
      cv_.notify_one();
      return true;
    }
    depth = queue_.size();
  }
  if (retry_after_ms != nullptr) {
    // Expected drain time of the queue ahead of a retry: depth jobs at
    // the smoothed per-request service time — clamped, because a deep
    // queue times a momentarily inflated EWMA would otherwise tell a
    // well-behaved client to go away for minutes.
    *retry_after_ms = std::clamp(
        static_cast<double>(depth) *
            ewma_service_ms_.load(std::memory_order_relaxed),
        0.1, std::max(0.1, options_.retry_after_max_ms));
  }
  return false;
}

double ShardWorker::AdaptiveHedgeMs(double floor_ms) const {
  const double ewma = ewma_service_ms_.load(std::memory_order_relaxed);
  const double var = ewma_var_ms2_.load(std::memory_order_relaxed);
  const double threshold = ewma + 2.0 * std::sqrt(std::max(var, 0.0));
  return std::clamp(threshold, floor_ms, 8.0 * floor_ms);
}

void ShardWorker::Retire(std::vector<ShardJob>* drained, ShardJob* in_flight) {
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = true;
  while (!queue_.empty()) {
    drained->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (current_ != nullptr) {
    in_flight->state = current_;
    in_flight->is_hedge = current_is_hedge_;
  }
  cv_.notify_all();
}

void ShardWorker::CollectHedgeCandidates(
    std::chrono::steady_clock::time_point cutoff,
    std::vector<std::shared_ptr<JobState>>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto consider = [&](const std::shared_ptr<JobState>& state) {
    if (state == nullptr) return;
    if (state->submitted_at > cutoff) return;
    if (state->claimed.load(std::memory_order_acquire)) return;
    // One hedge per request: the exchange both tests and marks.
    if (state->hedged.exchange(true, std::memory_order_acq_rel)) return;
    out->push_back(state);
  };
  consider(current_);
  for (const ShardJob& job : queue_) consider(job.state);
}

void ShardWorker::Loop() {
  obs::SetCurrentThreadName("shard-" + std::to_string(id_));
  for (;;) {
    ShardJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        exited_.store(true, std::memory_order_release);
        return;  // stopping and drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      current_ = job.state;
      current_is_hedge_ = job.is_hedge;
    }
    busy_.store(true, std::memory_order_release);
    Beat();
    // Chaos sites: a hang stalls the worker here (supervisor sees busy +
    // stale progress), a death makes the thread exit abandoning the
    // in-flight job (supervisor sees an exit it did not request).
    CTSDD_FAULT_POINT_COARSE("serve.shard.hang");
    CTSDD_FAULT_POINT_COARSE("serve.shard.death");
    if (t_death_requested) {
      t_death_requested = false;
      exited_.store(true, std::memory_order_release);
      return;
    }
    Process(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_.reset();
    }
    busy_.store(false, std::memory_order_release);
    Beat();
  }
}

void ShardWorker::Process(const ShardJob& job) {
  JobState& state = *job.state;
  if (state.claimed.load(std::memory_order_acquire)) {
    // Another copy (hedge sibling or the supervisor) already answered.
    metrics_->duplicate_skips->Add();
    SyncResidentGauges();
    return;
  }
  CTSDD_FAULT_POINT_COARSE("serve.shard.process");
  Timer timer;
  const QueryRequest& request = state.request;
  QueryResponse response;  // local: delivered only through the claim
  response.shard = id_;

  // Start the request's flight record (completed in FinishJob on a claim
  // win; duplicate skips never record).
  pending_record_ = obs::FlightRecord{};
  pending_record_.trace_id = state.trace.trace_id;
  pending_record_.query_sig = state.key.query_sig;
  pending_record_.db_sig = state.key.db_sig;
  pending_record_.shard = id_;
  pending_record_.hedged = job.is_hedge;
  pending_record_.queue_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - state.submitted_at)
          .count();
  request_gc_ms_ = 0;
  bytes_at_request_start_ = account_.bytes();
  // Queue wait lives on the request's async track, not this thread's:
  // it started while this worker was busy with earlier requests, so an
  // 'X' event here would overlap and break per-thread span nesting.
  if (obs::TraceArmed() && state.submit_ts_us > 0 &&
      state.trace.trace_id != 0) {
    obs::TraceAsyncSince("serve", "queue.wait", state.trace.trace_id,
                         state.submit_ts_us);
  }
  obs::TraceSpan process_span("serve", "shard.process", state.trace);
  if (process_span.armed()) {
    process_span.AddArg("shard", static_cast<uint64_t>(id_));
    if (job.is_hedge) process_span.AddArg2("hedge", 1);
  }

  // Deadline respect at dequeue: a job that expired while queued fails
  // typed, without paying for a compile it can no longer use.
  if (state.has_deadline &&
      std::chrono::steady_clock::now() >= state.deadline) {
    response.status =
        Status::DeadlineExceeded("deadline expired while queued");
    FinishJob(job, response, timer.ElapsedMillis());
    return;
  }

  CompiledPlan* plan = plans_.Lookup(state.key);
  (plan != nullptr ? metrics_->plan_hits : metrics_->plan_misses)->Add();
  response.plan_cache_hit = plan != nullptr;
  pending_record_.cache_hit = plan != nullptr;
  if (plan != nullptr && plan->stats != nullptr) {
    plan->stats->hits.fetch_add(1, std::memory_order_relaxed);
  }
  Beat();
  if (plan == nullptr) {
    // Quarantine re-check at compile time: the signature may have been
    // quarantined after this copy was admitted (several poison requests
    // in flight at once), and a restart must not buy poison a fresh
    // compile. Parole trials skip the check — they *are* the probe.
    if (quarantine_ != nullptr && !state.is_parole_trial &&
        quarantine_->Rejects(state.key.query_sig, state.key.db_sig,
                             std::chrono::steady_clock::now())) {
      response.status = Status::ResourceExhausted(
          "query signature quarantined; retry after parole");
      FinishJob(job, response, timer.ElapsedMillis());
      return;
    }
    // Critical-tier admission tightening: a cold compile is the one
    // discretionary load a pressured process can refuse outright. Reject
    // it typed with a backoff hint (cache hits above keep serving) and
    // run the shed ladder now — the reject alone frees nothing.
    if (options_.mem_governor != nullptr &&
        options_.mem_governor->tier() == MemGovernor::Tier::kCritical) {
      metrics_->mem_rejects->Add();
      if (flight_ != nullptr) {
        flight_->NoteAnomaly(obs::Anomaly::kMemoryDenial,
                             "shard " + std::to_string(id_) +
                                 ": critical tier rejected cold compile");
      }
      RunMemPressureLadder();
      response.status = Status::ResourceExhausted(
          "memory pressure: cold compile rejected; retry later");
      response.retry_after_ms = MemRetryHintMs();
      FinishJob(job, response, timer.ElapsedMillis());
      return;
    }
    Timer compile_timer;
    auto compiled = CompilePlan(job);
    pending_record_.compile_ms = compile_timer.ElapsedMillis();
    if (compiled.ok()) {
      plan = plans_.Insert(state.key, std::move(compiled).value());
      if (plan->stats != nullptr) {
        // Finish the descriptive fields, then publish: the registry's
        // readers only ever see a complete block.
        plan->stats->compile_us =
            static_cast<uint64_t>(pending_record_.compile_ms * 1000.0);
        plan->stats->query_sig = state.key.query_sig;
        plan->stats->db_sig = state.key.db_sig;
        plan->stats->shard = id_;
        if (plan_stats_ != nullptr) plan_stats_->Register(plan->stats);
      }
      if (quarantine_ != nullptr) {
        quarantine_->ReportSuccess(state.key.query_sig, state.key.db_sig);
      }
    } else {
      response.status = compiled.status();
      if (last_compile_mem_pressure_) {
        // The governor tripped this compile at an allocation seam: hand
        // the client a backoff hint and shed before the next request.
        response.retry_after_ms = MemRetryHintMs();
        if (flight_ != nullptr) {
          flight_->NoteAnomaly(obs::Anomaly::kMemoryDenial,
                               "shard " + std::to_string(id_) +
                                   ": governor tripped in-flight compile");
        }
        RunMemPressureLadder();
      }
    }
  }
  Beat();
  if (plan != nullptr) {
    pending_record_.route = static_cast<int>(plan->route);
    pending_record_.plan_size = plan->size;
    {
      obs::TraceSpan wmc_span("serve", "wmc", state.trace);
      Timer wmc_timer;
      response.probability = EvaluatePlan(*plan, request);
      pending_record_.wmc_ms = wmc_timer.ElapsedMillis();
      if (plan->stats != nullptr) {
        plan->stats->wmc_us.Record(
            static_cast<uint64_t>(pending_record_.wmc_ms * 1000.0));
      }
      if (wmc_span.armed()) {
        wmc_span.AddArg("plan_size", static_cast<uint64_t>(plan->size));
      }
    }
    response.lineage_gates = plan->lineage_gates;
    response.size = plan->size;
    response.width = plan->width;
    // A cached ladder plan keeps answering for the original key, so
    // repeats report degraded too.
    response.degraded = plan->route != request.route;
    pending_record_.degraded = response.degraded;
  }
  Beat();

  if (++requests_since_gc_check_ >= gc_interval_) {
    requests_since_gc_check_ = 0;
    RunGcPolicy();
  }
  FinishJob(job, response, timer.ElapsedMillis());
}

void ShardWorker::FinishJob(const ShardJob& job, QueryResponse& response,
                            double ms) {
  response.latency_ms = ms;
  Beat();
  if (!job.state->TryClaim()) {
    // The computed result is discarded; the plan (if any) stays cached,
    // so the duplicate work still warms this shard.
    metrics_->duplicate_skips->Add();
    SyncResidentGauges();
    return;
  }
  if (job.is_hedge) metrics_->hedge_wins->Add();
  if (job.state->CancelLoserBudgets(StatusCode::kCancelled)) {
    metrics_->hedge_cancels->Add();
  }
  metrics_->requests->Add();
  if (!response.status.ok()) {
    metrics_->failures->Add();
    if (response.status.code() == StatusCode::kDeadlineExceeded) {
      metrics_->timeouts->Add();
    }
  }
  metrics_->latency_us->Record(static_cast<uint64_t>(ms * 1000.0));
  if (flight_ != nullptr) {
    pending_record_.status_code = static_cast<int>(response.status.code());
    pending_record_.total_ms = ms;
    pending_record_.gc_ms = request_gc_ms_;
    pending_record_.bytes_charged =
        static_cast<int64_t>(account_.bytes()) -
        static_cast<int64_t>(bytes_at_request_start_);
    flight_->Record(pending_record_);
    // Refresh the outlier bar from the live latency distribution every
    // so often: far-above-p99 completions then dump the ring.
    if (++wins_since_outlier_refresh_ >= 64) {
      wins_since_outlier_refresh_ = 0;
      const double p99_ms =
          metrics_->latency_us->ValueAtPercentile(0.99) / 1000.0;
      if (p99_ms > 0) flight_->SetLatencyOutlierMs(8.0 * p99_ms);
    }
  }
  const double ewma = ewma_service_ms_.load(std::memory_order_relaxed);
  const double next_ewma = 0.8 * ewma + 0.2 * ms;
  ewma_service_ms_.store(next_ewma, std::memory_order_relaxed);
  // Squared-deviation EWMA of the same stream: the spread estimate
  // behind the adaptive hedge threshold (ewma + 2 sigma).
  const double dev = ms - next_ewma;
  const double var = ewma_var_ms2_.load(std::memory_order_relaxed);
  ewma_var_ms2_.store(0.8 * var + 0.2 * dev * dev,
                      std::memory_order_relaxed);
  SyncResidentGauges();
  job.state->Publish(response);
}

namespace {

// Remaining milliseconds until the job's deadline (0 = no deadline,
// which WorkBudget reads as "none"). A job whose deadline just passed
// gets an expired-but-armed budget, tripping on the first lease.
double DeadlineLeftMs(const JobState& state) {
  if (!state.has_deadline) return 0;
  const double left =
      std::chrono::duration<double, std::milli>(
          state.deadline - std::chrono::steady_clock::now())
          .count();
  return std::max(left, 1e-9);
}

PlanRoute AlternateRoute(PlanRoute route) {
  return route == PlanRoute::kObdd ? PlanRoute::kSdd : PlanRoute::kObdd;
}

}  // namespace

StatusOr<CompiledPlan> ShardWorker::CompilePlan(const ShardJob& job) {
  CTSDD_FAULT_POINT_COARSE("serve.compile");
  JobState& state = *job.state;
  const QueryRequest& request = state.request;
  const int side = job.is_hedge ? 1 : 0;
  metrics_->compiles->Add();
  last_compile_mem_pressure_ = false;
  obs::TraceSpan compile_span("compile", "compile", state.trace);
  if (compile_span.armed()) {
    compile_span.AddArg("route", static_cast<uint64_t>(request.route));
  }
  auto lineage = BuildLineage(request.query, *request.db);
  CTSDD_RETURN_IF_ERROR(lineage.status());
  const Circuit& circuit = lineage.value();
  std::vector<int> vars = circuit.Vars();
  if (vars.empty()) {
    // Constant lineage: no diagram to build, the truth value is the plan.
    CompiledPlan plan;
    plan.route = request.route;
    plan.lineage_gates = circuit.num_gates();
    plan.tape = WmcTape::Constant(Evaluate(
        circuit, std::vector<bool>(std::max(circuit.num_vars(), 0), false)));
    plan.stats = std::make_shared<PlanStats>();
    plan.stats->route = static_cast<int>(plan.route);
    plan.stats->requested_route = static_cast<int>(request.route);
    plan.stats->is_constant = true;
    plan.stats->lineage_gates = plan.lineage_gates;
    return plan;
  }

  // Width predictions for the admission-router training set (ROADMAP
  // item 4): a min-fill upper bound on the lineage circuit's treewidth,
  // plus exact treewidth/pathwidth when the circuit fits the exact
  // engines. Gated on gate count so the heuristic stays a small fixed
  // fraction of a cold compile; results are stamped onto whichever
  // ladder plan ultimately wins.
  int pred_tw = -1;
  int exact_tw = -1;
  int exact_pw = -1;
  if (options_.width_predict_max_gates > 0 &&
      circuit.num_gates() <= options_.width_predict_max_gates) {
    pred_tw = HeuristicCircuitTreewidth(circuit);
    if (circuit.num_gates() <= kMaxExactVertices) {
      auto tw = ExactCircuitTreewidth(circuit);
      if (tw.ok()) exact_tw = tw.value();
      auto pw = ExactPathwidth(PrimalGraph(circuit));
      if (pw.ok()) exact_pw = pw.value();
    }
  }
  const auto stamp = [&](StatusOr<CompiledPlan>& result, int hops) {
    if (!result.ok() || result.value().stats == nullptr) return;
    PlanStats& s = *result.value().stats;
    s.ladder_hops = hops;
    s.predicted_treewidth = pred_tw;
    s.exact_treewidth = exact_tw;
    s.exact_pathwidth = exact_pw;
  };

  // Every service compile runs budgeted, even with unlimited limits: the
  // lease pulse keeps a long compile's heartbeat alive, and the budget is
  // the cancel handle for supervisor restarts and hedge losers.
  WorkBudget primary(options_.compile_node_budget, DeadlineLeftMs(state));
  primary.BindPulse(&progress_);
  if (obs::TraceArmed()) primary.SetTraceContext(obs::CurrentContext());
  state.RegisterBudget(side, &primary);
  t_active_budget = &primary;
  auto first = CompileRoute(request, request.route, circuit, vars, &primary);
  t_active_budget = nullptr;
  state.RegisterBudget(side, nullptr);
  if (first.ok() || primary.reason() != StatusCode::kResourceExhausted ||
      primary.memory_pressure()) {
    // Success, a non-budget failure (e.g. bad vtree), or a deadline/
    // cancel trip — the ladder only retries node-budget exhaustion
    // (more time cannot be bought, but a different representation can
    // be smaller). A memory-pressure trip also returns directly: the
    // alternate route would hit the same process-wide ceiling, so the
    // caller sheds and backs the client off instead.
    if (!first.ok() && primary.memory_pressure()) {
      metrics_->mem_aborts->Add();
      last_compile_mem_pressure_ = true;
    }
    stamp(first, 1);
    return first;
  }
  metrics_->budget_aborts->Add();
  metrics_->fallbacks->Add();
  WorkBudget fallback(options_.compile_node_budget, DeadlineLeftMs(state));
  fallback.BindPulse(&progress_);
  if (obs::TraceArmed()) fallback.SetTraceContext(obs::CurrentContext());
  state.RegisterBudget(side, &fallback);
  t_active_budget = &fallback;
  auto second = CompileRoute(request, AlternateRoute(request.route), circuit,
                             std::move(vars), &fallback);
  t_active_budget = nullptr;
  state.RegisterBudget(side, nullptr);
  stamp(second, 2);
  if (second.ok()) return second;
  if (fallback.reason() == StatusCode::kResourceExhausted) {
    if (fallback.memory_pressure()) {
      // The fallback died at the memory ceiling, not on its node budget:
      // a process-state problem, not a poison signature — no strike.
      metrics_->mem_aborts->Add();
      last_compile_mem_pressure_ = true;
      return second;
    }
    metrics_->budget_aborts->Add();
    // Both ladder routes exhausted their budgets: this signature is
    // poison for the current budget — strike it so repeats stop burning
    // full ladder compiles.
    if (quarantine_ != nullptr) {
      quarantine_->ReportExhausted(state.key.query_sig, state.key.db_sig,
                                   std::chrono::steady_clock::now());
      if (flight_ != nullptr) {
        flight_->NoteAnomaly(obs::Anomaly::kQuarantineStrike,
                             "shard " + std::to_string(id_) +
                                 ": double-route budget exhaustion");
      }
    }
  }
  return second;
}

StatusOr<CompiledPlan> ShardWorker::CompileRoute(const QueryRequest& request,
                                                 PlanRoute route,
                                                 const Circuit& circuit,
                                                 std::vector<int> vars,
                                                 WorkBudget* budget) {
  CTSDD_FAULT_POINT_COARSE("serve.compile.route");
  CompiledPlan plan;
  plan.route = route;
  plan.lineage_gates = circuit.num_gates();
  plan.vars = std::move(vars);
  plan.stats = std::make_shared<PlanStats>();
  plan.stats->route = static_cast<int>(route);
  plan.stats->requested_route = static_cast<int>(request.route);
  plan.stats->lineage_gates = plan.lineage_gates;
  plan.stats->num_vars = static_cast<int>(plan.vars.size());
  if (route == PlanRoute::kObdd) {
    ObddManager* manager = AcquireManager(obdd_pool_, plan.vars, plan.vars);
    const auto root = CompilePinned(
        manager, budget,
        [&] { return CompileCircuitToObdd(manager, circuit); },
        plan.stats.get());
    CTSDD_RETURN_IF_ERROR(root.status());
    plan.obdd = manager;
    plan.obdd_root = *root;
    plan.tape = manager->BuildWmcTape(*root);
    // The compile's memos are dead weight once the tape exists; the
    // caches keep their cross-compile reuse.
    manager->ReleaseMemos();
    plan.size = manager->Size(*root);
    plan.width = manager->Width(*root);
    plan.pinned_nodes = plan.size;
  } else {
    auto vtree = VtreeForStrategy(circuit, plan.vars, request.strategy);
    CTSDD_RETURN_IF_ERROR(vtree.status());
    std::string key = VtreeKeyString(vtree.value());
    SddManager* manager =
        AcquireManager(sdd_pool_, std::move(key), std::move(vtree).value());
    const auto root = CompilePinned(
        manager, budget,
        [&] { return CompileCircuitToSdd(manager, circuit); },
        plan.stats.get());
    CTSDD_RETURN_IF_ERROR(root.status());
    plan.sdd = manager;
    plan.sdd_root = *root;
    plan.tape = manager->BuildWmcTape(*root, plan.vars);
    manager->ReleaseMemos();
    const SddStats stats = ComputeSddStats(*manager, *root);
    plan.size = stats.size;
    plan.width = stats.width;
    plan.pinned_nodes = stats.decisions;
  }
  plan.stats->nodes = static_cast<uint64_t>(plan.size);
  plan.stats->edges = 2 * static_cast<uint64_t>(plan.size);
  plan.stats->width = static_cast<uint64_t>(plan.width);
  plan.stats->pinned_nodes = static_cast<uint64_t>(plan.pinned_nodes);
  return plan;
}

template <class M, class Compile>
StatusOr<int> ShardWorker::CompilePinned(M* manager, WorkBudget* budget,
                                         const Compile& compile,
                                         PlanStats* stats) {
  const MemAccount* acct = manager->mem_account();
  const uint64_t bytes_before = acct != nullptr ? acct->bytes() : 0;
  MemGovernor* gov = options_.mem_governor;
  manager->AttachBudget(budget);
  // Register with the governor while the compile is in flight: when
  // another shard drives the process to the hard ceiling, the governor
  // cancels the largest registered compile by account bytes.
  if (gov != nullptr) gov->RegisterCompile(budget, acct);
  const int root = compile();
  if (gov != nullptr) gov->UnregisterCompile(budget);
  manager->DetachBudget();
  if (root < 0) {
    // Reclaim the aborted compile's partial nodes now instead of
    // letting them ride until the next policy check.
    TimedGc(manager);
    return budget->status();
  }
  manager->AddRootRef(root);
  const uint64_t bytes_after = acct != nullptr ? acct->bytes() : 0;
  stats->pinned_bytes =
      bytes_after > bytes_before ? bytes_after - bytes_before : 0;
  return root;
}

double ShardWorker::EvaluatePlan(const CompiledPlan& plan,
                                 const QueryRequest& request) {
  slot_probs_.resize(plan.vars.size());
  for (size_t i = 0; i < plan.vars.size(); ++i) {
    const auto tuple = static_cast<size_t>(plan.vars[i]);
    slot_probs_[i] = tuple < request.weights.size()
                         ? request.weights[tuple]
                         : request.db->TupleProb(plan.vars[i]);
  }
  return plan.tape.Evaluate(slot_probs_, &tape_values_);
}

template <class M, class Key, class... Args>
M* ShardWorker::AcquireManager(ManagerPool<M, Key>& pool, Key key,
                               Args&&... args) {
  for (auto& e : pool.entries) {
    if (e.key == key) {
      e.last_used = ++use_clock_;
      return e.manager.get();
    }
  }
  if (pool.entries.size() >= options_.manager_pool_capacity) {
    EvictManager(pool, pool.Lru());
  }
  auto& e = pool.entries.emplace_back();
  e.key = std::move(key);
  e.account = std::make_unique<MemAccount>(&account_);
  e.manager = std::make_unique<M>(std::forward<Args>(args)...);
  e.last_used = ++use_clock_;
  // Lend the manager the service-wide pool: the GC mark forks there, and
  // so does the SDD semantic compiler; applies stay sequential.
  e.manager->AttachExecutor(exec_pool_);
  e.manager->AttachMemAccount(e.account.get());
  return e.manager.get();
}

template <class M, class Key>
void ShardWorker::EvictManager(ManagerPool<M, Key>& pool,
                               typename ManagerPool<M, Key>::Iterator victim) {
  const void* dying = victim->manager.get();
  plans_.EraseIf([dying](const CompiledPlan& p) { return PlanIn(p, dying); });
  pool.entries.erase(victim);
  metrics_->manager_evictions->Add();
}

template <typename Manager>
size_t ShardWorker::TimedGc(Manager* manager) {
  Timer timer;
  const size_t reclaimed = manager->GarbageCollect();
  const double ms = timer.ElapsedMillis();
  metrics_->gc_pause_us->Record(static_cast<uint64_t>(ms * 1000.0));
  request_gc_ms_ += ms;
  metrics_->gc_runs->Add();
  metrics_->gc_reclaimed->Add(reclaimed);
  return reclaimed;
}

double ShardWorker::MemRetryHintMs() const {
  // A few service times of backoff: enough for the ladder run the caller
  // just triggered to take effect before the client retries.
  return std::clamp(4.0 * ewma_service_ms_.load(std::memory_order_relaxed),
                    0.1, std::max(0.1, options_.retry_after_max_ms));
}

bool ShardWorker::EvictLruManager() {
  // use_clock_ stamps every pool, so the stamps are unique and comparable.
  std::optional<uint64_t> oldest;
  ForEachPool([&](auto& pool) {
    const auto it = pool.Lru();
    if (it != pool.entries.end() && (!oldest || it->last_used < *oldest)) {
      oldest = it->last_used;
    }
  });
  if (!oldest) return false;
  ForEachPool([&](auto& pool) {
    const auto it = pool.Lru();
    if (it != pool.entries.end() && it->last_used == *oldest) {
      EvictManager(pool, it);
    }
  });
  return true;
}

void ShardWorker::RunMemPressureLadder() {
  MemGovernor* gov = options_.mem_governor;
  if (gov == nullptr || gov->tier() == MemGovernor::Tier::kNone) return;
  // Soft tier: give back everything that regrows on demand — collect
  // garbage and shrink the computed caches in every pooled manager.
  ForEachManager([&](auto* manager) {
    TimedGc(manager);
    manager->ShrinkCaches();
  });
  // Critical tier: shed state — unpinned (LRU) plans in batches, each
  // batch followed by a collection so the released roots turn into
  // bytes; then whole managers. Destroying a manager is the only step
  // that returns node-store and arena chunks to the allocator.
  while (gov->tier() == MemGovernor::Tier::kCritical) {
    int evicted = 0;
    while (evicted < 8 && plans_.EvictOne()) ++evicted;
    if (evicted > 0) {
      metrics_->pressure_evictions->Add(static_cast<uint64_t>(evicted));
      ForEachManager([&](auto* manager) { TimedGc(manager); });
      continue;
    }
    if (!EvictLruManager()) break;  // nothing left to shed on this shard
    metrics_->pressure_evictions->Add();
  }
}

void ShardWorker::RunGcPolicy() {
  RunMemPressureLadder();
  size_t reclaimed_this_check = 0;
  bool saw_pressure = false;
  const auto enforce = [&](auto* manager) {
    if (manager->NumLiveNodes() <= options_.gc_live_node_ceiling) return;
    saw_pressure = true;
    reclaimed_this_check += TimedGc(manager);
    // Pinned plans alone may hold the manager above the ceiling. The
    // per-plan pinned-node accounting targets eviction at *this*
    // manager's plans (LRU order among them): a plan's roots pin nodes
    // only in its own manager, so shedding another manager's plans can
    // never bring this one under its ceiling — the old global-LRU
    // fallback only destroyed innocent bystanders' cache hits. When the
    // over-ceiling manager has nothing left to shed, its live set is all
    // permanent (literals) or externally pinned, and the policy stops.
    const auto in_this_manager = [manager](const CompiledPlan& p) {
      return PlanIn(p, manager);
    };
    while (manager->NumLiveNodes() > options_.gc_live_node_ceiling &&
           plans_.EvictOneMatching(in_this_manager)) {
      metrics_->targeted_evictions->Add();
      reclaimed_this_check += TimedGc(manager);
    }
    // Return cache capacity sized up by the pre-GC workload to baseline
    // (the SDD manager repopulates its semantic cache from survivors).
    manager->ShrinkCaches();
  };
  ForEachManager(enforce);
  // Reclaim-rate feedback: when a check finds pressure (a manager over
  // its ceiling, or nodes actually reclaimed) check again sooner; when
  // it finds nothing, back off — up to 8x the configured cadence.
  if (saw_pressure || reclaimed_this_check > 0) {
    gc_interval_ = std::max(1, gc_interval_ / 2);
  } else {
    gc_interval_ = std::min(gc_interval_ * 2,
                            8 * std::max(1, options_.gc_check_interval));
  }
}

void ShardWorker::SyncResidentGauges() {
  int64_t live = 0;
  ForEachManager([&](const auto* manager) { live += manager->NumLiveNodes(); });
  const int64_t peak = std::max(peak_share_, live);
  const int64_t plans = static_cast<int64_t>(plans_.size());
  metrics_->live_nodes->Add(live - live_share_);
  metrics_->peak_live_nodes->Add(peak - peak_share_);
  metrics_->plan_cache_size->Add(plans - plans_share_);
  live_share_ = live;
  peak_share_ = peak;
  plans_share_ = plans;
}

}  // namespace ctsdd
