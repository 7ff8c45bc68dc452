#include "serve/query_service.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/shard.h"
#include "serve/signature.h"
#include "serve/supervisor.h"
#include "util/hashing.h"
#include "util/logging.h"

namespace ctsdd {

namespace {

const char* MemLayerName(MemLayer layer) {
  switch (layer) {
    case MemLayer::kNodeStore:
      return "node_store";
    case MemLayer::kArena:
      return "arena";
    case MemLayer::kUniqueTable:
      return "unique_table";
    case MemLayer::kCache:
      return "cache";
    case MemLayer::kMemo:
      return "memo";
    case MemLayer::kPlanCache:
      return "plan_cache";
  }
  return "unknown";
}

const char* RouteName(int route) {
  return static_cast<PlanRoute>(route) == PlanRoute::kObdd ? "obdd" : "sdd";
}

// Minimal append-only JSON writer for the introspection handlers. Keys
// are trusted literals and values are numeric / boolean / controlled
// identifiers, so no general escaping is needed; 64-bit signatures are
// emitted as decimal strings to survive JavaScript number parsing.
struct JsonOut {
  std::string s;
  bool comma = false;

  void Sep() {
    if (comma) s += ',';
    comma = true;
  }
  void Key(const char* key) {
    Sep();
    if (key != nullptr) {
      s += '"';
      s += key;
      s += "\":";
    }
  }
  void Open(const char* key, char bracket) {
    Key(key);
    s += bracket;
    comma = false;
  }
  void Close(char bracket) {
    s += bracket;
    comma = true;
  }
  template <typename T>
  void Num(const char* key, T v) {
    Key(key);
    s += std::to_string(v);
  }
  // 64-bit value as a decimal string (exact in every JSON consumer).
  void NumStr(const char* key, uint64_t v) {
    Key(key);
    s += '"';
    s += std::to_string(v);
    s += '"';
  }
  void Bool(const char* key, bool v) {
    Key(key);
    s += v ? "true" : "false";
  }
  void Str(const char* key, const char* v) {
    Key(key);
    s += '"';
    s += v;
    s += '"';
  }
  void Raw(const char* key, const std::string& json) {
    Key(key);
    s += json;
  }
};

// Admission-time input checks: a request needs a database, and every
// per-request weight must be a probability (NaN and infinities fail the
// range test too).
Status CheckRequest(const QueryRequest& request) {
  if (request.db == nullptr) {
    return Status::InvalidArgument("request without database");
  }
  for (size_t t = 0; t < request.weights.size(); ++t) {
    const double w = request.weights[t];
    if (!(w >= 0.0 && w <= 1.0)) {
      return Status::InvalidArgument("weight of tuple " + std::to_string(t) +
                                     " is not a probability in [0, 1]");
    }
  }
  return Status::Ok();
}

}  // namespace

QueryService::QueryService(ServeOptions options)
    : options_(options),
      exec_pool_(options.exec_workers > 1
                     ? std::make_unique<exec::TaskPool>(options.exec_workers)
                     : nullptr),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      serve_metrics_(std::make_unique<ServeMetrics>(metrics_.get())),
      flight_(std::make_unique<obs::FlightRecorder>(
          obs::FlightRecorder::Options{options.flight_recorder_capacity,
                                       options.flight_dump_dir,
                                       /*min_dump_interval_ms=*/250})),
      quarantine_(std::make_unique<Quarantine>(Quarantine::Options{
          options.quarantine_threshold, options.quarantine_parole_ms,
          options.quarantine_parole_max_ms, options.quarantine_capacity,
          /*trial_timeout_ms=*/std::max(10000.0,
                                        4 * options.quarantine_parole_ms)})) {
  CTSDD_CHECK_GT(options_.num_shards, 0);
  start_time_ = std::chrono::steady_clock::now();
  // Plan telemetry before any shard exists: MakeWorker hands each worker
  // the registry pointer, and worker teardown evicts into it.
  plan_stats_ = std::make_unique<PlanStatsRegistry>(metrics_.get());
  // Memory governor before any shard exists: MakeWorker stamps
  // options_.mem_governor into each worker's account at construction.
  // An embedding that supplies its own governor keeps it; otherwise a
  // non-zero hard watermark turns governed serving on.
  if (options_.mem_governor == nullptr && options_.mem_hard_bytes > 0) {
    governor_ = std::make_unique<MemGovernor>();
    governor_->SetWatermarks(options_.mem_soft_bytes, options_.mem_hard_bytes);
    options_.mem_governor = governor_.get();
  }
  mem_account_.SetGovernor(options_.mem_governor);
  slots_.reserve(options_.num_shards);
  for (int i = 0; i < options_.num_shards; ++i) {
    auto slot = std::make_unique<ShardSlot>();
    slot->worker = MakeWorker(i);
    slots_.push_back(std::move(slot));
  }
  if (options_.heartbeat_window_ms > 0) {
    supervisor_ = std::make_unique<Supervisor>(
        options_, &slots_, serve_metrics_.get(), flight_.get(),
        [this](int shard_id) { return MakeWorker(shard_id); });
  }
  if (options_.debug_port >= 0) StartDebugServer();
}

QueryService::~QueryService() {
  // Stop serving introspection before any state the handlers read is
  // torn down (member order already guarantees this; being explicit
  // keeps the dependency obvious).
  if (debug_server_ != nullptr) debug_server_->Stop();
}

std::shared_ptr<ShardWorker> QueryService::MakeWorker(int shard_id) {
  return std::make_shared<ShardWorker>(
      shard_id, options_, serve_metrics_.get(), &mem_account_, flight_.get(),
      exec_pool_.get(), quarantine_.get(), plan_stats_.get());
}

void QueryService::StartDebugServer() {
  debug_server_ = std::make_unique<obs::DebugServer>();
  obs::DebugServer* server = debug_server_.get();
  using Request = obs::DebugServer::Request;
  using Response = obs::DebugServer::Response;

  server->Handle("/metrics", [this](const Request&) {
    Response r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = MetricsPrometheus();
    return r;
  });

  // /healthz judges liveness by the same signals the supervisor uses: a
  // busy shard whose progress counter has not advanced within the
  // heartbeat window is hung; an exited worker is dead. The previous
  // observation per shard lives in handler state — the server serves one
  // connection at a time, so no lock is needed.
  struct HealthPrev {
    uint64_t progress = 0;
    std::chrono::steady_clock::time_point changed;
    bool init = false;
  };
  auto prev = std::make_shared<std::vector<HealthPrev>>(slots_.size());
  const double window_ms =
      options_.heartbeat_window_ms > 0 ? options_.heartbeat_window_ms : 1000.0;
  server->Handle("/healthz", [this, prev, window_ms](const Request&) {
    const auto now = std::chrono::steady_clock::now();
    int hung = 0;
    int exited = 0;
    JsonOut shards;
    shards.Open(nullptr, '[');
    for (size_t i = 0; i < slots_.size(); ++i) {
      const auto worker = slots_[i]->Get();
      const bool is_busy = worker->busy();
      const bool is_exited = worker->exited();
      const uint64_t progress = worker->progress();
      HealthPrev& p = (*prev)[i];
      // An idle worker or any progress resets the staleness clock; only
      // busy-with-frozen-progress accumulates toward "hung".
      if (!p.init || progress != p.progress || !is_busy) {
        p.init = true;
        p.progress = progress;
        p.changed = now;
      }
      const double stale_ms =
          std::chrono::duration<double, std::milli>(now - p.changed).count();
      const bool is_hung = is_busy && stale_ms > window_ms;
      hung += is_hung ? 1 : 0;
      exited += is_exited ? 1 : 0;
      shards.Open(nullptr, '{');
      shards.Num("shard", i);
      shards.Bool("busy", is_busy);
      shards.Bool("exited", is_exited);
      shards.Bool("hung", is_hung);
      shards.Num("queue_depth", worker->queue_depth());
      shards.Num("progress", progress);
      shards.Close('}');
    }
    shards.Close(']');
    const bool healthy = hung == 0 && exited == 0;
    JsonOut j;
    j.Open(nullptr, '{');
    j.Str("status", healthy ? "ok" : "unhealthy");
    j.Num("hung_shards", hung);
    j.Num("exited_shards", exited);
    j.Num("quarantine_entries", quarantine_->counters().entries);
    j.Raw("shards", shards.s);
    j.Close('}');
    Response r;
    r.status = healthy ? 200 : 503;
    r.content_type = "application/json";
    r.body = std::move(j.s);
    return r;
  });

  server->Handle("/statusz", [this](const Request&) {
    const ServiceStats s = stats();
    JsonOut j;
    j.Open(nullptr, '{');
    j.Num("uptime_s", std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_time_)
                          .count());
    j.Num("num_shards", s.num_shards);
    j.Open("totals", '{');
    j.Num("requests", s.totals.requests);
    j.Num("failures", s.totals.failures);
    j.Num("timeouts", s.totals.timeouts);
    j.Num("sheds", s.totals.sheds);
    j.Num("compiles", s.totals.compiles);
    j.Num("plan_hits", s.totals.plan_hits);
    j.Num("plan_misses", s.totals.plan_misses);
    j.Num("plan_evictions", s.totals.plan_evictions);
    j.Num("plan_cache_size", s.totals.plan_cache_size);
    j.Num("mem_bytes", s.totals.mem_bytes);
    j.Close('}');
    j.Open("latency_ms", '{');
    j.Num("p50", s.p50_ms);
    j.Num("p95", s.p95_ms);
    j.Num("p99", s.p99_ms);
    j.Close('}');
    j.Open("governor", '{');
    j.Bool("enabled", s.governor.enabled);
    j.Num("tier", s.governor.tier);
    j.Num("bytes", s.governor.bytes);
    j.Num("peak_bytes", s.governor.peak_bytes);
    j.Num("soft_bytes", s.governor.soft_bytes);
    j.Num("hard_bytes", s.governor.hard_bytes);
    j.Close('}');
    j.Open("plans", '{');
    j.Num("live", plan_stats_->live_plans());
    j.Num("evicted", plan_stats_->evicted_plans());
    j.Close('}');
    j.Open("shards", '[');
    for (size_t i = 0; i < slots_.size(); ++i) {
      const auto worker = slots_[i]->Get();
      j.Open(nullptr, '{');
      j.Num("shard", i);
      j.Bool("busy", worker->busy());
      j.Bool("exited", worker->exited());
      j.Num("queue_depth", worker->queue_depth());
      j.Num("mem_bytes", worker->mem_account().bytes());
      j.Close('}');
    }
    j.Close(']');
    j.Close('}');
    Response r;
    r.content_type = "application/json";
    r.body = std::move(j.s);
    return r;
  });

  // /memz is a depth-2 memory tree: governor totals, then each shard's
  // account broken down by layer. Per-manager child accounts are owned
  // by their single-threaded workers and deliberately not walked from
  // here; the layer totals include their bytes.
  server->Handle("/memz", [this](const Request&) {
    JsonOut j;
    j.Open(nullptr, '{');
    const MemGovernorStats g = SnapshotGovernor(options_.mem_governor);
    j.Open("governor", '{');
    j.Bool("enabled", g.enabled);
    j.Num("tier", g.tier);
    j.Num("bytes", g.bytes);
    j.Num("peak_bytes", g.peak_bytes);
    j.Num("soft_bytes", g.soft_bytes);
    j.Num("hard_bytes", g.hard_bytes);
    j.Close('}');
    j.Open("shards", '[');
    for (size_t i = 0; i < slots_.size(); ++i) {
      const auto worker = slots_[i]->Get();
      const MemAccount& acct = worker->mem_account();
      j.Open(nullptr, '{');
      j.Num("shard", i);
      j.Num("bytes", acct.bytes());
      j.Open("layers", '{');
      for (int l = 0; l < kMemLayerCount; ++l) {
        const auto layer = static_cast<MemLayer>(l);
        j.Num(MemLayerName(layer), acct.bytes(layer));
      }
      j.Close('}');
      j.Close('}');
    }
    j.Close(']');
    j.Close('}');
    Response r;
    r.content_type = "application/json";
    r.body = std::move(j.s);
    return r;
  });

  server->Handle("/plansz", [this](const Request&) {
    const auto plans = plan_stats_->Snapshot();
    uint64_t live_hits = 0;
    uint64_t live_evals = 0;
    JsonOut rows;
    rows.Open(nullptr, '[');
    for (const auto& p : plans) {
      const uint64_t hits = p->hits.load(std::memory_order_relaxed);
      const uint64_t evals = p->evaluations();
      live_hits += hits;
      live_evals += evals;
      rows.Open(nullptr, '{');
      rows.NumStr("query_sig", p->query_sig);
      rows.NumStr("db_sig", p->db_sig);
      rows.Num("shard", p->shard);
      rows.Str("route", RouteName(p->route));
      rows.Str("requested_route", RouteName(p->requested_route));
      rows.Num("ladder_hops", p->ladder_hops);
      rows.Bool("is_constant", p->is_constant);
      rows.Num("compile_us", p->compile_us);
      rows.Num("lineage_gates", p->lineage_gates);
      rows.Num("num_vars", p->num_vars);
      rows.Num("nodes", p->nodes);
      rows.Num("edges", p->edges);
      rows.Num("width", p->width);
      if (p->vtree != nullptr) rows.Str("vtree", p->vtree);
      rows.Num("hits", hits);
      rows.Num("evaluations", evals);
      rows.Open("wmc_us", '{');
      rows.Num("count", p->wmc_us.count());
      rows.Num("p50", p->wmc_us.ValueAtPercentile(0.50));
      rows.Num("p99", p->wmc_us.ValueAtPercentile(0.99));
      rows.Num("max", p->wmc_us.max());
      rows.Close('}');
      rows.Close('}');
    }
    rows.Close(']');
    const uint64_t evicted_evals = plan_stats_->evicted_wmc_us().count();
    JsonOut j;
    j.Open(nullptr, '{');
    j.Open("summary", '{');
    j.Num("live_plans", plans.size());
    j.Num("evicted_plans", plan_stats_->evicted_plans());
    j.Num("live_hits", live_hits);
    j.Num("live_evaluations", live_evals);
    j.Num("evicted_evaluations", evicted_evals);
    // Conservation invariant dumped alongside the data: live + evicted
    // evaluation counts account for every WMC pass ever recorded.
    j.Num("total_evaluations", live_evals + evicted_evals);
    j.Close('}');
    j.Raw("plans", rows.s);
    j.Close('}');
    Response r;
    r.content_type = "application/json";
    r.body = std::move(j.s);
    return r;
  });

  server->Handle("/flightz", [this](const Request&) {
    Response r;
    r.content_type = "application/json";
    r.body = flight_->DumpJson("debug_server");
    return r;
  });

  server->Handle("/tracez", [](const Request& req) {
    Response r;
    if (obs::TraceArmed()) {
      r.status = 409;
      r.body = "tracer already armed\n";
      return r;
    }
    const int64_t ms = req.IntParam("ms", 250, 10, 10000);
    obs::Tracer::Clear();
    obs::Tracer::Arm();
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    obs::Tracer::Disarm();
    r.content_type = "application/json";
    r.headers.emplace_back("X-Trace-Dropped",
                           std::to_string(obs::Tracer::Dropped()));
    r.body = obs::Tracer::ChromeTraceJson();
    return r;
  });

  server->Handle("/profilez", [](const Request& req) {
    Response r;
    if (!obs::Profiler::Supported()) {
      r.status = 501;
      r.body = "sampling profiler unsupported on this platform\n";
      return r;
    }
    if (obs::Profiler::armed()) {
      r.status = 409;
      r.body = "profiler already armed\n";
      return r;
    }
    const int64_t ms = req.IntParam("ms", 1000, 10, 30000);
    obs::Profiler::Clear();
    obs::Profiler::Arm();
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    obs::Profiler::Disarm();
    // Exact capture accounting travels as headers, not as comment lines:
    // flamegraph toolchains choke on non-stack lines in collapsed input.
    const obs::Profiler::Stats st = obs::Profiler::stats();
    r.headers.emplace_back("X-Profile-Attempted", std::to_string(st.attempted));
    r.headers.emplace_back("X-Profile-Samples", std::to_string(st.samples));
    r.headers.emplace_back("X-Profile-Dropped", std::to_string(st.dropped));
    r.headers.emplace_back("X-Profile-Threads", std::to_string(st.threads));
    r.body = obs::Profiler::Collapsed();
    return r;
  });

  // Bind failure (port in use, bad address) is not fatal to serving:
  // debug_port() reports -1 and error() holds the reason.
  debug_server_->Start(options_.debug_port, options_.debug_bind_addr);
}

QueryResponse QueryService::Execute(const QueryRequest& request) {
  return ExecuteBatch({request})[0];
}

std::vector<QueryResponse> QueryService::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResponse> responses(requests.size());
  if (requests.empty()) return responses;
  std::atomic<int> remaining(static_cast<int>(requests.size()));
  std::mutex done_mu;
  std::condition_variable done_cv;
  const auto admitted_at = std::chrono::steady_clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& request = requests[i];
    if (Status invalid = CheckRequest(request); !invalid.ok()) {
      responses[i].status = std::move(invalid);
      serve_metrics_->requests->Add();
      serve_metrics_->failures->Add();
      obs::FlightRecord rec;
      rec.status_code = static_cast<int>(StatusCode::kInvalidArgument);
      flight_->Record(rec);
      remaining.fetch_sub(1);
      continue;
    }
    // Signature-routed sharding: repeats of a (query, database) pair
    // always land on the shard holding their plan and managers.
    const PlanKey key{QuerySignature(request.query),
                      DatabaseSignature(*request.db), request.route};
    // Poison-query quarantine at admission: a quarantined signature
    // fails typed RESOURCE_EXHAUSTED here, without queueing — no compile
    // slot burnt, no worker touched.
    Quarantine::Admission admission = Quarantine::Admission::kAdmit;
    if (quarantine_->enabled()) {
      double parole_hint = 0;
      admission = quarantine_->Admit(key.query_sig, key.db_sig, admitted_at,
                                     &parole_hint);
      if (admission == Quarantine::Admission::kReject) {
        responses[i].status = Status::ResourceExhausted(
            "query signature quarantined; retry after parole");
        responses[i].retry_after_ms = parole_hint;
        serve_metrics_->requests->Add();
        serve_metrics_->failures->Add();
        obs::FlightRecord rec;
        rec.query_sig = key.query_sig;
        rec.db_sig = key.db_sig;
        rec.status_code = static_cast<int>(StatusCode::kResourceExhausted);
        flight_->Record(rec);
        remaining.fetch_sub(1);
        continue;
      }
    }
    const size_t shard =
        static_cast<size_t>(Hash2(key.query_sig, key.db_sig)) %
        slots_.size();
    auto state = std::make_shared<JobState>();
    state->request = request;  // owned copy: survives supervisor fail-over
    state->response = &responses[i];
    state->key = key;
    state->submitted_at = admitted_at;
    state->is_parole_trial = admission == Quarantine::Admission::kTrial;
    state->remaining = &remaining;
    state->done_mu = &done_mu;
    state->done_cv = &done_cv;
    if (obs::TraceArmed()) {
      // One trace per request, rooted here: the async request track runs
      // admission -> publish; queue/compile/WMC spans parent under it by
      // trace_id. Publish (claim winner only) emits the matching end.
      state->trace = {obs::NewTraceId(), 0};
      state->submit_ts_us = obs::TraceNowUs();
      obs::TraceAsyncBegin("request", "request", state->trace.trace_id);
    }
    const double deadline_ms = request.deadline_ms > 0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;
    if (deadline_ms > 0) {
      state->has_deadline = true;
      state->deadline =
          admitted_at + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                deadline_ms));
    }
    std::shared_ptr<ShardWorker> worker;
    {
      std::lock_guard<std::mutex> lock(slots_[shard]->mu);
      worker = slots_[shard]->worker;
    }
    double retry_after_ms = 0;
    if (!worker->Submit(state, &retry_after_ms)) {
      // Admission control shed the job: fail it typed, with a backoff
      // hint, instead of queueing without bound.
      responses[i].status =
          Status::Unavailable("shard queue full; retry later");
      responses[i].shard = static_cast<int>(shard);
      responses[i].retry_after_ms = retry_after_ms;
      serve_metrics_->sheds->Add();
      serve_metrics_->requests->Add();
      serve_metrics_->failures->Add();
      obs::FlightRecord rec;
      rec.trace_id = state->trace.trace_id;
      rec.query_sig = key.query_sig;
      rec.db_sig = key.db_sig;
      rec.shard = static_cast<int>(shard);
      rec.status_code = static_cast<int>(StatusCode::kUnavailable);
      flight_->Record(rec);
      // The shed request never reaches Publish: close its track here.
      if (state->trace.trace_id != 0) {
        obs::TraceAsyncEnd("request", "request", state->trace.trace_id);
      }
      remaining.fetch_sub(1);
    }
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining.load() == 0; });
  return responses;
}

ServiceStats QueryService::stats() const {
  const ServeMetrics& m = *serve_metrics_;
  ServiceStats out;
  out.num_shards = static_cast<int>(slots_.size());
  ShardStats& t = out.totals;
  t.requests = m.requests->value();
  t.failures = m.failures->value();
  t.plan_hits = m.plan_hits->value();
  t.plan_misses = m.plan_misses->value();
  t.plan_evictions = m.plan_evictions->value();
  t.compiles = m.compiles->value();
  t.gc_runs = m.gc_runs->value();
  t.gc_reclaimed = m.gc_reclaimed->value();
  t.manager_evictions = m.manager_evictions->value();
  t.timeouts = m.timeouts->value();
  t.sheds = m.sheds->value();
  t.fallbacks = m.fallbacks->value();
  t.budget_aborts = m.budget_aborts->value();
  t.duplicate_skips = m.duplicate_skips->value();
  t.mem_rejects = m.mem_rejects->value();
  t.mem_aborts = m.mem_aborts->value();
  t.pressure_evictions = m.pressure_evictions->value();
  t.mem_bytes = mem_account_.bytes();
  for (int l = 0; l < kMemLayerCount; ++l) {
    t.mem_bytes_by_layer[static_cast<size_t>(l)] =
        mem_account_.bytes(static_cast<MemLayer>(l));
  }
  t.peak_live_nodes = static_cast<int>(m.peak_live_nodes->value());
  t.plan_cache_size = static_cast<uint64_t>(m.plan_cache_size->value());
  SupervisionStats& sup = out.supervision;
  sup.hangs_detected = m.hangs_detected->value();
  sup.deaths_detected = m.deaths_detected->value();
  sup.shard_restarts = m.shard_restarts->value();
  sup.failed_on_restart = m.failed_on_restart->value();
  const Quarantine::Counters q = quarantine_->counters();
  sup.quarantine_rejects = q.rejects;
  sup.quarantine_strikes = q.strikes;
  sup.parole_trials = q.parole_trials;
  sup.parole_successes = q.parole_successes;
  sup.quarantine_entries = q.entries;
  out.governor = SnapshotGovernor(options_.mem_governor);
  // RESOURCE_EXHAUSTED by cause. The populations are disjoint: memory
  // trips never strike quarantine (see CompilePlan), quarantine rejects
  // never touch the governor.
  out.rejected_quarantine = q.rejects;
  out.rejected_memory = t.mem_rejects + t.mem_aborts;
  out.p50_ms = static_cast<double>(m.latency_us->ValueAtPercentile(0.50)) / 1e3;
  out.p95_ms = static_cast<double>(m.latency_us->ValueAtPercentile(0.95)) / 1e3;
  out.p99_ms = static_cast<double>(m.latency_us->ValueAtPercentile(0.99)) / 1e3;
  return out;
}

void QueryService::PublishMetrics() {
  const auto set = [&](const char* name, uint64_t v) {
    metrics_->GetCounter(name)->Set(v);
  };
  const Quarantine::Counters q = quarantine_->counters();
  set("quarantine.rejects", q.rejects);
  set("quarantine.strikes", q.strikes);
  set("quarantine.parole_trials", q.parole_trials);
  set("quarantine.parole_successes", q.parole_successes);
  // Derived sums, exported under their own names for dashboards.
  set("serve.rejected_quarantine", q.rejects);
  set("serve.rejected_memory", serve_metrics_->mem_rejects->value() +
                                   serve_metrics_->mem_aborts->value());
  const MemGovernorStats g = SnapshotGovernor(options_.mem_governor);
  set("governor.admit_denials", g.admit_denials);
  set("governor.optional_growth_denials", g.optional_growth_denials);
  set("governor.compile_cancels", g.compile_cancels);
  set("governor.soft_transitions", g.soft_transitions);
  set("governor.critical_transitions", g.critical_transitions);
  set("governor.hard_breaches", g.hard_breaches);
  set("flight.records", flight_->records());
  set("flight.anomalies", flight_->anomalies());
  set("flight.dumps", flight_->dumps());
  for (int a = 0; a < obs::kAnomalyCount; ++a) {
    const auto anomaly = static_cast<obs::Anomaly>(a);
    set((std::string("flight.anomaly.") + obs::AnomalyName(anomaly)).c_str(),
        flight_->anomaly_count(anomaly));
  }
  if (exec_pool_ != nullptr) {
    metrics_->GetCounter("exec.tasks_run", "Tasks executed by the exec pool")
        ->Set(exec_pool_->tasks_run());
    metrics_->GetCounter("exec.steals", "Forked indices run off the forker")
        ->Set(exec_pool_->steals());
    metrics_->GetCounter("exec.parks", "Worker sleeps with no unclaimed index")
        ->Set(exec_pool_->parks());
  }
  metrics_
      ->GetCounter("trace.dropped_events",
                   "Trace events dropped by full per-thread rings")
      ->Set(obs::Tracer::Dropped());
  const obs::Profiler::Stats prof = obs::Profiler::stats();
  metrics_
      ->GetCounter("profiler.attempted",
                   "Profiler signal deliveries (samples + dropped)")
      ->Set(prof.attempted);
  metrics_->GetCounter("profiler.samples", "Profiler samples captured")
      ->Set(prof.samples);
  metrics_
      ->GetCounter("profiler.dropped",
                   "Profiler samples dropped by full per-thread buffers")
      ->Set(prof.dropped);
  if (debug_server_ != nullptr) {
    metrics_->GetCounter("debug.requests", "Debug-server requests served")
        ->Set(debug_server_->requests());
    metrics_
        ->GetCounter("debug.rejected",
                     "Debug-server requests rejected by the framing layer")
        ->Set(debug_server_->rejected());
  }
  const auto gauge = [&](const char* name, int64_t v) {
    metrics_->GetGauge(name)->Set(v);
  };
  gauge("mem.bytes", static_cast<int64_t>(mem_account_.bytes()));
  gauge("governor.bytes", static_cast<int64_t>(g.bytes));
  gauge("governor.peak_bytes", static_cast<int64_t>(g.peak_bytes));
  gauge("governor.tier", g.tier);
  gauge("quarantine.entries", static_cast<int64_t>(q.entries));
  metrics_
      ->GetGauge("plan.live_plans",
                 "Plans with live telemetry blocks in the registry")
      ->Set(static_cast<int64_t>(plan_stats_->live_plans()));
}

std::string QueryService::MetricsJson() {
  PublishMetrics();
  return metrics_->JsonSnapshot();
}

std::string QueryService::MetricsPrometheus() {
  PublishMetrics();
  return metrics_->PrometheusText();
}

}  // namespace ctsdd
