// Configuration and observability surface of the query-serving subsystem.
//
// ServeOptions sizes the service (shards, per-shard plan cache, budgets,
// memory watermarks). Every serve-owned counter and resident
// gauge lives in the service's obs::MetricsRegistry, behind the
// ServeMetrics handles below: events bump them where they happen, and
// ServiceStats (with its nested ShardStats / SupervisionStats /
// MemGovernorStats) is a read-only typed view that
// QueryService::stats() reads back out of the registry, plus the
// latency percentiles of the registry's lossless log-linear histograms.

#ifndef CTSDD_SERVE_SERVE_STATS_H_
#define CTSDD_SERVE_SERVE_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "util/mem_governor.h"

namespace ctsdd {

struct ServeOptions {
  // Worker shards. Each shard owns its plan-cache partition and serves
  // requests on its own thread; a request's (query, database) signature
  // picks its shard, so repeats always land where their plan is cached.
  int num_shards = 4;
  // Compiled plans (tapes) retained per shard (LRU past this).
  size_t plan_cache_capacity = 256;
  // Unused: read nowhere in src/. Each cold compile builds its own
  // manager and destroys it once the plan's tape exists, so a shard
  // keeps no manager pool and runs no garbage collection. Both fields
  // stay only because perfbench/serve_workloads.cc still sets them; the
  // next benchmark change deletes those lines and these fields together.
  size_t manager_pool_capacity = 8;
  int gc_live_node_ceiling = 1 << 20;
  // Workers in the shared exec/ pool the service lends to every shard's
  // managers (see src/README.md, "The parallel runtime"). The pool only
  // speeds up semantic SDD compiles of lineages with at most
  // kSemanticCircuitMaxVars variables; every OBDD
  // compile and every wider SDD compile runs on the shard's own thread
  // either way. 0 or 1 keeps everything there. The pool is shared, so
  // `exec_workers` caps the *extra* parallelism a single compile can
  // recruit, not a per-shard reservation.
  int exec_workers = 0;
  // Node-allocation budget per cold compile (0 = unlimited). A compile
  // that trips it aborts cleanly (its manager goes with the partial
  // nodes), and the degradation ladder retries the alternate route (OBDD
  // <-> SDD) once with a fresh budget before reporting RESOURCE_EXHAUSTED.
  uint64_t compile_node_budget = 0;
  // Deadline applied to requests that do not carry their own (0 = none).
  // Measured from batch admission; requests still queued past it are
  // failed with DEADLINE_EXCEEDED without compiling, and in-flight
  // compiles abort at the deadline.
  double default_deadline_ms = 0;
  // Admission control: jobs beyond this per-shard queue depth are shed
  // with UNAVAILABLE and a retry-after hint instead of queueing without
  // bound (0 = unbounded).
  size_t max_queue_depth = 0;
  // Upper clamp on every retry_after_ms hint handed to clients. Deep
  // queues times a momentarily inflated service-time EWMA can otherwise
  // produce hints of minutes; a well-behaved client sleeping that long
  // turns one overload blip into an outage of its own making.
  double retry_after_max_ms = 250;
  // Supervision: a shard whose worker is busy but whose progress counter
  // has not advanced for this long is declared hung and restarted; a
  // worker thread that exited without being asked is declared dead.
  // Queued and in-flight requests of the torn-down shard fail typed
  // UNAVAILABLE with a retry hint. 0 disables the supervisor thread
  // entirely (no heartbeats, no hedging).
  double heartbeat_window_ms = 0;
  // Hedged re-dispatch: a request waiting on one shard longer than the
  // hedge threshold is re-submitted once to a healthy sibling shard; the
  // first exact answer wins and the loser's in-flight compile budget is
  // cancelled. 0 disables hedging. Requires the supervisor
  // (heartbeat_window_ms). The threshold adapts per shard: each worker
  // tracks a latency EWMA and deviation, and the supervisor hedges jobs
  // older than ewma + 2 sigma — this value is the *floor* of that
  // adaptive threshold and 8x this value is its ceiling, so a
  // misbehaving estimate can neither hedge instantly nor never.
  double hedge_after_ms = 0;
  // Memory governor watermarks over the process-total accounted bytes
  // (util/mem_governor.h). hard = 0 disables governing entirely;
  // soft = 0 derives soft as 3/4 of hard. With a hard ceiling set, every
  // byte-owning structure in every shard is charged to a per-shard
  // account rolled up into one service governor, compiles are admission-
  // checked at their allocation seams (deny-before-allocate, typed
  // RESOURCE_EXHAUSTED with a retry hint), the soft tier denies optional
  // cache growth, and in the critical tier shards evict plans and reject
  // cold compiles — the hard ceiling is never crossed by accounted
  // bytes.
  uint64_t mem_soft_bytes = 0;
  uint64_t mem_hard_bytes = 0;
  // Internal plumbing: the service stamps its governor here in the
  // options copy handed to each worker. Leave null in user-built
  // options (a non-null value is honored, for embedding scenarios that
  // share one governor across services).
  MemGovernor* mem_governor = nullptr;
  // Poison-query quarantine: a signature whose compiles exhaust the
  // node budget on BOTH ladder routes this many times is negative-cached
  // and fails RESOURCE_EXHAUSTED at admission without burning a compile
  // slot. 0 disables quarantine.
  int quarantine_threshold = 0;
  // Parole: after this long in quarantine one trial request is admitted;
  // success clears the entry, another double-route exhaustion doubles
  // the parole interval (capped below). Pre-quarantine strikes decay by
  // halving per parole interval, so transient pressure is forgiven.
  double quarantine_parole_ms = 1000;
  double quarantine_parole_max_ms = 60000;
  // Bound on distinct quarantined signatures (oldest strike evicted).
  size_t quarantine_capacity = 1024;
  // Flight recorder (obs/flight_recorder.h): most recent request records
  // retained for anomaly dumps. Always on; sizes the evidence window.
  size_t flight_recorder_capacity = 256;
  // When non-empty, anomaly dumps are also written to
  // <dir>/flight_<seq>.json (the latest dump is always readable via
  // QueryService::flight_recorder()->last_dump_json()).
  std::string flight_dump_dir;
  // Live introspection endpoint (obs/debug_server.h): -1 disables,
  // 0 binds an ephemeral port (read it back via
  // QueryService::debug_port()), otherwise the given port. The server
  // exposes /metrics, /healthz, /statusz, /memz, /plansz, /flightz,
  // /tracez and /profilez for the life of the service.
  int debug_port = -1;
  // Bind address for the debug server. Loopback by default on purpose:
  // the endpoints expose plans, memory maps and stacks — widen only on
  // trusted networks.
  std::string debug_bind_addr = "127.0.0.1";
  // Width-prediction gate for per-plan telemetry: cold compiles whose
  // lineage circuit has at most this many gates also run the min-fill
  // treewidth heuristic (and the exact treewidth/pathwidth engines when
  // small enough), recording predicted-width vs. actual-size pairs for
  // the admission-router training set. 0 disables prediction. At the
  // default, on the perfbench serve_cold lineages (mostly 20-30 gates),
  // prediction's p50 was 34 us: about 3x the 11 us OBDD compile it
  // accompanies and under half the 80 us SDD compile.
  int width_predict_max_gates = 256;
};

// Supervision-layer counters: detection/restart events, hedging, and
// quarantine (the quarantine fields are read from the Quarantine).
struct SupervisionStats {
  uint64_t hangs_detected = 0;
  uint64_t deaths_detected = 0;
  uint64_t shard_restarts = 0;
  // Queued or in-flight requests failed typed UNAVAILABLE when their
  // shard was torn down.
  uint64_t failed_on_restart = 0;
  uint64_t hedges_dispatched = 0;
  // Hedge submissions dropped because the sibling's queue was full (the
  // primary copy is still in flight, so nothing is lost).
  uint64_t hedge_sheds = 0;
  // Requests answered by the hedge copy (the primary lost the claim).
  uint64_t hedge_wins = 0;
  // In-flight compile budgets cancelled by a claim winner.
  uint64_t hedge_cancels = 0;
  uint64_t quarantine_rejects = 0;
  // Double-route budget exhaustions recorded against a signature — each
  // strike is one full ladder compile burned on a poison query.
  uint64_t quarantine_strikes = 0;
  uint64_t parole_trials = 0;
  uint64_t parole_successes = 0;
  uint64_t quarantine_entries = 0;  // current negative-cache size
};

// Service-wide request, plan-cache, GC and memory counters, summed over
// every shard worker the service has run.
struct ShardStats {
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_evictions = 0;
  uint64_t compiles = 0;
  // Always 0: a shard keeps no manager past its compile, so it never
  // collects or evicts one. perfbench still reads these three; the next
  // benchmark change deletes them with their metrics.
  uint64_t gc_runs = 0;
  uint64_t gc_reclaimed = 0;
  uint64_t manager_evictions = 0;
  // Requests failed with DEADLINE_EXCEEDED — expired while queued or
  // aborted mid-compile by their deadline.
  uint64_t timeouts = 0;
  // Jobs rejected at admission (queue depth over max_queue_depth).
  uint64_t sheds = 0;
  // Degradation-ladder retries on the alternate route after a budget
  // abort on the requested one.
  uint64_t fallbacks = 0;
  // Compiles aborted by the node-allocation budget.
  uint64_t budget_aborts = 0;
  // Jobs a worker dequeued after another copy (hedge or supervisor)
  // had already answered them — skipped without compiling.
  uint64_t duplicate_skips = 0;
  // Memory-governor interactions (all zero when ungoverned):
  // cold compiles rejected typed RESOURCE_EXHAUSTED at the critical
  // pressure tier, compiles tripped mid-flight by the governor's
  // deny-before-allocate admission (distinguished from node-budget
  // aborts by WorkBudget's memory-pressure marker), and plan evictions
  // forced by the critical tier.
  uint64_t mem_rejects = 0;
  uint64_t mem_aborts = 0;
  uint64_t pressure_evictions = 0;
  // Accounted resident bytes of the shard workers (total and by layer),
  // read from their MemAccounts at stats() time.
  uint64_t mem_bytes = 0;
  std::array<uint64_t, kMemLayerCount> mem_bytes_by_layer = {};
  // Resident gauges, each the sum of the existing workers' shares: a
  // worker retired by a restart counts until it is destroyed.
  int live_nodes = 0;  // always 0: no manager outlives its compile
  // Sum over workers of the most nodes one of its compiles held.
  int peak_live_nodes = 0;
  uint64_t plan_cache_size = 0;  // plans resident in the plan caches
};

// Snapshot of the service's memory governor (all zero / disabled when no
// hard watermark is configured).
struct MemGovernorStats {
  bool enabled = false;
  uint64_t soft_bytes = 0;
  uint64_t hard_bytes = 0;
  uint64_t bytes = 0;       // current governor-accounted process bytes
  uint64_t peak_bytes = 0;  // high-water mark of the above
  int tier = 0;             // MemGovernor::Tier at snapshot time
  uint64_t admit_denials = 0;
  uint64_t optional_growth_denials = 0;
  uint64_t compile_cancels = 0;
  uint64_t injected_denials = 0;  // mem.reserve fault-injected denials
  uint64_t soft_transitions = 0;
  uint64_t critical_transitions = 0;
  // Charges observed above the hard ceiling — zero by construction when
  // every allocating path reserves first; tests and the bench gate on it.
  uint64_t hard_breaches = 0;
};

inline MemGovernorStats SnapshotGovernor(const MemGovernor* gov) {
  MemGovernorStats out;
  if (gov == nullptr) return out;
  out.enabled = gov->enabled();
  out.soft_bytes = gov->soft_bytes();
  out.hard_bytes = gov->hard_bytes();
  out.bytes = gov->bytes();
  out.peak_bytes = gov->peak_bytes();
  out.tier = static_cast<int>(gov->tier());
  out.admit_denials = gov->admit_denials();
  out.optional_growth_denials = gov->optional_growth_denials();
  out.compile_cancels = gov->compile_cancels();
  out.injected_denials = gov->injected_denials();
  out.soft_transitions = gov->soft_transitions();
  out.critical_transitions = gov->critical_transitions();
  out.hard_breaches = gov->hard_breaches();
  return out;
}

// Read-only view of the service's metrics (see the file comment). The
// counters are monotone across the life of the service, restarts
// included.
struct ServiceStats {
  ShardStats totals;
  SupervisionStats supervision;
  MemGovernorStats governor;
  // RESOURCE_EXHAUSTED responses split by cause: memory pressure
  // (critical-tier cold-compile rejects + governor-tripped compiles) vs
  // poison-query quarantine. Memory rejects never feed quarantine
  // strikes, so the two populations are disjoint.
  uint64_t rejected_memory = 0;
  uint64_t rejected_quarantine = 0;
  int num_shards = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  // Garbage-collection pause percentiles: 0, like gc_runs.
  double gc_pause_p50_ms = 0.0;
  double gc_pause_p99_ms = 0.0;

  double plan_hit_rate() const {
    const uint64_t lookups = totals.plan_hits + totals.plan_misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(totals.plan_hits) /
                     static_cast<double>(lookups);
  }
};

// Registry handles of every serve-owned counter, resident gauge and
// latency histogram, registered once by name from the table in the
// constructor. Shard workers, the supervisor and admission bump them
// where the event happens; nothing else stores these counts.
struct ServeMetrics {
  explicit ServeMetrics(obs::MetricsRegistry* registry);

  // ShardStats counters.
  obs::Counter* requests = nullptr;
  obs::Counter* failures = nullptr;
  obs::Counter* plan_hits = nullptr;
  obs::Counter* plan_misses = nullptr;
  obs::Counter* plan_evictions = nullptr;
  obs::Counter* compiles = nullptr;
  obs::Counter* gc_runs = nullptr;
  obs::Counter* gc_reclaimed = nullptr;
  obs::Counter* manager_evictions = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* sheds = nullptr;
  obs::Counter* fallbacks = nullptr;
  obs::Counter* budget_aborts = nullptr;
  obs::Counter* duplicate_skips = nullptr;
  obs::Counter* mem_rejects = nullptr;
  obs::Counter* mem_aborts = nullptr;
  obs::Counter* pressure_evictions = nullptr;
  // SupervisionStats counters.
  obs::Counter* hangs_detected = nullptr;
  obs::Counter* deaths_detected = nullptr;
  obs::Counter* shard_restarts = nullptr;
  obs::Counter* failed_on_restart = nullptr;
  obs::Counter* hedges_dispatched = nullptr;
  obs::Counter* hedge_sheds = nullptr;
  obs::Counter* hedge_wins = nullptr;
  obs::Counter* hedge_cancels = nullptr;
  // Resident gauges: each worker moves them by deltas and retracts its
  // share when destroyed (live_nodes stays 0, like gc_runs).
  obs::Gauge* live_nodes = nullptr;
  obs::Gauge* peak_live_nodes = nullptr;
  obs::Gauge* plan_cache_size = nullptr;
  // Microsecond samples, recorded by every shard.
  obs::Histogram* latency_us = nullptr;
  obs::Histogram* gc_pause_us = nullptr;  // no samples, like gc_runs
};

inline ServeMetrics::ServeMetrics(obs::MetricsRegistry* registry) {
  static constexpr struct {
    obs::Counter* ServeMetrics::*handle;
    const char* name;
  } kCounters[] = {
      {&ServeMetrics::requests, "serve.requests"},
      {&ServeMetrics::failures, "serve.failures"},
      {&ServeMetrics::plan_hits, "plan_cache.hits"},
      {&ServeMetrics::plan_misses, "plan_cache.misses"},
      {&ServeMetrics::plan_evictions, "plan_cache.evictions"},
      {&ServeMetrics::compiles, "serve.compiles"},
      {&ServeMetrics::gc_runs, "gc.runs"},
      {&ServeMetrics::gc_reclaimed, "gc.reclaimed_nodes"},
      {&ServeMetrics::manager_evictions, "plan_cache.manager_evictions"},
      {&ServeMetrics::timeouts, "serve.timeouts"},
      {&ServeMetrics::sheds, "serve.sheds"},
      {&ServeMetrics::fallbacks, "serve.fallbacks"},
      {&ServeMetrics::budget_aborts, "serve.budget_aborts"},
      {&ServeMetrics::duplicate_skips, "serve.duplicate_skips"},
      {&ServeMetrics::mem_rejects, "serve.mem_rejects"},
      {&ServeMetrics::mem_aborts, "serve.mem_aborts"},
      {&ServeMetrics::pressure_evictions, "serve.pressure_evictions"},
      {&ServeMetrics::hangs_detected, "supervision.hangs_detected"},
      {&ServeMetrics::deaths_detected, "supervision.deaths_detected"},
      {&ServeMetrics::shard_restarts, "supervision.shard_restarts"},
      {&ServeMetrics::failed_on_restart, "supervision.failed_on_restart"},
      {&ServeMetrics::hedges_dispatched, "supervision.hedges_dispatched"},
      {&ServeMetrics::hedge_sheds, "supervision.hedge_sheds"},
      {&ServeMetrics::hedge_wins, "supervision.hedge_wins"},
      {&ServeMetrics::hedge_cancels, "supervision.hedge_cancels"},
  };
  for (const auto& c : kCounters) {
    this->*c.handle = registry->GetCounter(c.name);
  }
  live_nodes = registry->GetGauge("serve.live_nodes");
  peak_live_nodes = registry->GetGauge("serve.peak_live_nodes");
  plan_cache_size = registry->GetGauge("plan_cache.size");
  latency_us = registry->GetHistogram(
      "serve.latency_us", "End-to-end request latency in microseconds");
  gc_pause_us = registry->GetHistogram(
      "serve.gc_pause_us", "Garbage-collection pause in microseconds");
}

}  // namespace ctsdd

#endif  // CTSDD_SERVE_SERVE_STATS_H_
