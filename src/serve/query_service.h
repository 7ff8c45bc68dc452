// QueryService: the long-lived query-serving front end (the paper's
// payoff — probabilistic UCQ evaluation through compiled lineage — run
// as a service instead of a one-shot pipeline).
//
// A request is (query, database, weights): lineage L(Q, D) compiles to
// an OBDD or SDD once per (query shape, database content, route) and
// is cached; every repeat — including weight-varied repeats, since
// tuple probabilities enter only at weighted-model-count time — pays a
// WMC pass over the compiled diagram and nothing else.
//
// Requests are sharded by (query, database) signature across worker
// threads. Each shard owns its plan-cache partition and builds a fresh
// manager for every cold compile (single-threaded; see
// util/thread_check.h). A plan keeps only the compiled WMC tape, so the
// manager and its whole diagram are destroyed before the request is
// answered, and a shard's resident memory is its plan cache, which
// evicts under its capacity bound and memory pressure — so the service
// runs indefinitely where the one-shot pipeline's managers grow without
// limit.

#ifndef CTSDD_SERVE_QUERY_SERVICE_H_
#define CTSDD_SERVE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "exec/task_pool.h"
#include "db/query.h"
#include "db/query_compile.h"
#include "obs/debug_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/plan_cache.h"
#include "serve/plan_stats.h"
#include "serve/quarantine.h"
#include "serve/serve_stats.h"
#include "util/status.h"

namespace ctsdd {

class ShardWorker;
class Supervisor;
struct ShardSlot;

// One probability query against a tuple-independent database.
struct QueryRequest {
  Ucq query;
  // Must outlive the request's execution (the service never copies it).
  const Database* db = nullptr;
  // Per-request tuple probabilities indexed by tuple id; ids beyond the
  // vector (or an empty vector) fall back to the database's own
  // probabilities. Weights never invalidate a cached plan. A weight that
  // is NaN, infinite or outside [0, 1] fails the request
  // INVALID_ARGUMENT at admission.
  std::vector<double> weights;
  // Ignored: the shard picks each SDD plan's vtree from its lineage
  // (VtreeForLineage). Kept until perfbench/serve_workloads.cc stops
  // setting it.
  VtreeStrategy strategy = VtreeStrategy::kBalanced;
  PlanRoute route = PlanRoute::kSdd;
  // Per-request deadline measured from batch admission; 0 falls back to
  // ServeOptions::default_deadline_ms (0 there too = no deadline). A
  // request still queued past its deadline fails with DEADLINE_EXCEEDED
  // without compiling; an in-flight compile aborts at the deadline.
  double deadline_ms = 0;
};

struct QueryResponse {
  Status status;  // OK unless lineage/compilation failed
  double probability = 0.0;
  bool plan_cache_hit = false;
  int shard = -1;
  double latency_ms = 0.0;
  // True when the serving plan came off the degradation ladder: the
  // requested route's compile tripped its budget and the alternate
  // representation (OBDD <-> SDD) answered instead. The answer itself is
  // exact — both routes compute the same weighted model count.
  bool degraded = false;
  // Set alongside transient typed failures — an UNAVAILABLE shed or
  // shard restart, or a RESOURCE_EXHAUSTED quarantine reject: the
  // caller's backoff hint (queue drain estimate, detection window, or
  // time to the next parole, respectively), clamped to
  // ServeOptions::retry_after_max_ms for the queue-derived cases.
  double retry_after_ms = 0;
  // Compile-time statistics of the serving plan.
  int lineage_gates = 0;
  int size = 0;
  int width = 0;
};

class QueryService {
 public:
  explicit QueryService(ServeOptions options = {});
  ~QueryService();  // drains and joins every shard

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Executes one request (blocks until its shard answers).
  QueryResponse Execute(const QueryRequest& request);

  // Admits the whole batch at once, fans it out across shards by
  // signature, and blocks until every response is filled. Responses are
  // positionally aligned with requests.
  std::vector<QueryResponse> ExecuteBatch(
      const std::vector<QueryRequest>& requests);

  // The service's counters and gauges, read from the metrics registry,
  // plus latency percentiles.
  ServiceStats stats() const;

  // The service's always-on flight recorder (never null): recent request
  // records plus anomaly/dump counters, for tests and embedders.
  obs::FlightRecorder* flight_recorder() const { return flight_.get(); }

  // The unified metrics registry, holding every serve counter, gauge and
  // histogram; each call first refreshes the values read from components
  // that keep their own atomics. JSON is a stable flat object; Prometheus
  // is a text exposition.
  std::string MetricsJson();
  std::string MetricsPrometheus();
  obs::MetricsRegistry* metrics_registry() { return metrics_.get(); }

  // Per-plan telemetry registry (never null): live stats block per
  // cached plan plus the evicted-plan merge totals.
  PlanStatsRegistry* plan_stats() const { return plan_stats_.get(); }

  // Live introspection server (ServeOptions::debug_port). debug_port()
  // is the actually-bound port — useful with port 0 — or -1 when the
  // server is disabled or failed to bind.
  obs::DebugServer* debug_server() const { return debug_server_.get(); }
  int debug_port() const {
    return debug_server_ != nullptr && debug_server_->running()
               ? debug_server_->port()
               : -1;
  }

  const ServeOptions& options() const { return options_; }

 private:
  std::shared_ptr<ShardWorker> MakeWorker(int shard_id);
  void StartDebugServer();

  // Copies the counters of components that keep their own atomics
  // (quarantine, governor, flight recorder, exec pool, tracer, profiler,
  // debug server, memory accounts, plan telemetry) into the registry.
  void PublishMetrics();

  ServeOptions options_;
  // Service-wide fork-join pool lent to every shard's managers (null
  // when options_.exec_workers <= 1); it speeds only semantic SDD
  // compiles of at most kSemanticCircuitMaxVars variables. Declared
  // before the shards so it outlives every manager that borrowed it.
  std::unique_ptr<exec::TaskPool> exec_pool_;
  // Unified metrics registry and the serve layer's handles into it: the
  // only store of the service's counters. flight_ is the bounded ring of
  // recent request records with anomaly dumps.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<ServeMetrics> serve_metrics_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  // Poison-query negative cache, checked at admission and before cold
  // compiles. Service-level on purpose: it must survive shard restarts,
  // or every restart would buy a poisonous signature `threshold` more
  // ladder compiles.
  std::unique_ptr<Quarantine> quarantine_;
  // Per-plan telemetry registry. Declared after metrics_ (it holds
  // registry pointers) and before slots_ (workers publish into it and
  // merge on eviction — including the evictions their destructors run).
  std::unique_ptr<PlanStatsRegistry> plan_stats_;
  // Process-wide memory governor (created when mem_hard_bytes > 0 and no
  // external governor was supplied); options_.mem_governor points at it.
  std::unique_ptr<MemGovernor> governor_;
  // Parent of every shard worker's memory account (chained to the
  // governor, if any), so it holds the bytes of every existing worker.
  // Declared before slots_: shard accounts release into it.
  MemAccount mem_account_;
  // Shard table: worker pointers swap under per-slot mutexes when the
  // supervisor restarts a shard.
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  // Declared after slots_: the supervisor's scan thread walks slots_, so
  // it must stop before any of the above is torn down.
  std::unique_ptr<Supervisor> supervisor_;
  // Declared very last: the debug server's handlers read everything
  // above (slots, governor, registries), so it must stop serving first.
  std::unique_ptr<obs::DebugServer> debug_server_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_QUERY_SERVICE_H_
