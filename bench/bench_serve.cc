// Steady-state serving benchmark for the serve/ subsystem.
//
// Models a query server in front of a *changing* database: the stream
// issues >= 10k mixed UCQ probability requests (named Section 4 families
// plus parameterized per-constant queries, fresh weights per request)
// while the database content is regenerated every few hundred requests
// — same schema and tuple ids (so variable orders and vtrees recur), new
// random S-edges (so every generation brings genuinely novel lineage
// functions). That is the workload where a cache that kept every plan
// would grow without limit.
//
// Reported:
//   - steady-state throughput (QPS) and latency percentiles,
//   - plan-cache hit rate and evictions,
//   - the accounted resident bytes per decile of the stream — with a
//     bounded plan cache they plateau; with an effectively unbounded one
//     they climb (no manager outlives its compile, so plans are all a
//     shard keeps),
//   - repeated-query throughput against the cold per-query compile path
//     (CompileQuery from scratch per request, the pre-serve regime).
//
// --json=PATH appends machine-readable sections (see bench_util.h);
// point it at a scratch path, then hand-merge into ../BENCH_serve.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "db/lineage.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "perfbench/serve_inputs.h"
#include "db/query.h"
#include "db/query_compile.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "serve/query_service.h"
#include "serve/shard.h"
#include "util/budget.h"
#include "util/fault_injection.h"
#include "util/mem_governor.h"
#include "util/random.h"
#include "util/timer.h"
#include "vtree/vtree.h"

namespace ctsdd {
namespace {

// The database and query generators are shared with perfbench, so a
// database seed and a shape index mean the same input in both harnesses.
using perfbench::QueryPopulation;
using perfbench::RandomContentDb;

struct StreamResult {
  double qps = 0.0;
  std::vector<int> kb_per_decile;  // accounted resident KB at each decile
  ServiceStats stats;
};

StreamResult RunStream(const std::vector<Ucq>& queries,
                       const ServeOptions& options, int total_requests,
                       int domain, int edges, int generations,
                       int batch_size, uint64_t seed) {
  QueryService service(options);
  Rng rng(seed);
  StreamResult out;
  Timer timer;
  const int generation_len = std::max(1, total_requests / generations);
  std::unique_ptr<Database> db;
  int issued = 0;
  int next_decile = total_requests / 10;
  while (issued < total_requests) {
    if (issued % generation_len == 0) {
      // A new database generation: same ids, novel content. The old
      // generation's plans go stale in the cache (never requested
      // again) and are shed by LRU under the bounded configuration.
      db = std::make_unique<Database>(
          RandomContentDb(domain, edges, seed + issued / generation_len));
    }
    const int n = std::min({batch_size, total_requests - issued,
                            generation_len - issued % generation_len});
    std::vector<QueryRequest> batch;
    batch.reserve(n);
    for (int i = 0; i < n; ++i) {
      QueryRequest request;
      request.query = queries[rng.NextBelow(queries.size())];
      request.db = db.get();
      request.route = rng.NextBool(0.5) ? PlanRoute::kObdd : PlanRoute::kSdd;
      request.strategy = VtreeStrategy::kBalanced;
      // Fresh weights per request: plan reuse must survive them.
      request.weights.resize(db->num_tuples());
      for (double& p : request.weights) p = 0.1 + 0.8 * rng.NextDouble();
      batch.push_back(std::move(request));
    }
    const auto responses = service.ExecuteBatch(batch);
    for (const QueryResponse& r : responses) {
      if (!r.status.ok()) {
        std::fprintf(stderr, "request failed: %s\n",
                     r.status.ToString().c_str());
        std::exit(1);
      }
    }
    issued += n;
    while (issued >= next_decile && out.kb_per_decile.size() < 10) {
      out.kb_per_decile.push_back(
          static_cast<int>(service.stats().totals.mem_bytes >> 10));
      next_decile += total_requests / 10;
    }
  }
  out.qps = issued / timer.ElapsedSeconds();
  out.stats = service.stats();
  return out;
}

void PrintTrajectory(const char* label, const StreamResult& r) {
  std::printf("  %-9s resident KB per decile:", label);
  for (int v : r.kb_per_decile) std::printf(" %7d", v);
  std::printf("\n");
}

// --- Overload section: open-loop arrivals past capacity -------------------

// 20% of the overload stream is adversarial: unions of `width`
// per-constant disjuncts — wide lineages whose compiles dwarf the
// typical request and (under a compile budget) exercise the
// degradation ladder.
std::vector<Ucq> AdversarialPopulation(int domain, int width) {
  std::vector<Ucq> queries;
  for (int c = 1; c <= domain; ++c) {
    Ucq wide = PerConstantRsQuery(c);
    for (int k = 1; k < width; ++k) {
      wide.disjuncts.push_back(
          PerConstantRsQuery(1 + (c - 1 + k) % domain).disjuncts[0]);
    }
    queries.push_back(std::move(wide));
  }
  return queries;
}

struct OverloadResult {
  double offered_qps = 0.0;
  double accepted_p99_ms = 0.0;
  double shed_rate = 0.0;       // arrivals still shed after all retries
  double failure_rate = 0.0;    // arrivals failed after all retries
  uint64_t wrong_answers = 0;   // accepted answers not matching the oracle
  uint64_t retries = 0;         // extra attempts spent honoring hints
  uint64_t retry_successes = 0; // arrivals rescued by a backed-off retry
  ServiceStats stats;
};

// Paced open-loop driver: arrival i is due at i/target_qps; a small
// submitter pool picks up due arrivals and blocks per-request on the
// service (sheds return immediately, so submitters keep pace even when
// the shard queues are full). Clients are well-behaved: an UNAVAILABLE
// answer with a retry hint is retried after sleeping the hinted backoff,
// up to `max_attempts` tries per arrival. Accepted-request latency is
// the client-observed latency of the answering attempt, queue wait
// included, backoff sleeps excluded.
OverloadResult RunOverload(const std::vector<Ucq>& shapes,
                           const std::vector<double>& oracle,
                           const std::vector<int>& schedule,
                           const Database& db, const ServeOptions& options,
                           double target_qps, int max_attempts = 3) {
  QueryService service(options);
  std::atomic<size_t> next(0);
  std::mutex agg_mu;
  std::vector<double> accepted_ms;
  uint64_t sheds = 0, failures = 0, wrong = 0;
  uint64_t retries = 0, retry_successes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  auto submitter = [&] {
    std::vector<double> local_ms;
    uint64_t local_sheds = 0, local_failures = 0, local_wrong = 0;
    uint64_t local_retries = 0, local_rescued = 0;
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= schedule.size()) break;
      const auto due =
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(i / target_qps));
      std::this_thread::sleep_until(due);
      QueryRequest request;
      request.query = shapes[schedule[i]];
      request.db = &db;
      request.route =
          schedule[i] % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      QueryResponse response;
      double ms = 0;
      int attempts = 0;
      for (;;) {
        const auto start = std::chrono::steady_clock::now();
        response = service.Execute(request);
        ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
        ++attempts;
        // Only transient UNAVAILABLE outcomes that carry a hint are
        // retried; quarantine/budget rejections are final to the client.
        if (response.status.ok() || attempts >= max_attempts ||
            response.status.code() != StatusCode::kUnavailable ||
            response.retry_after_ms <= 0) {
          break;
        }
        ++local_retries;
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::min(response.retry_after_ms, 100.0)));
      }
      if (response.status.ok()) {
        local_ms.push_back(ms);
        if (attempts > 1) ++local_rescued;
        if (std::abs(response.probability - oracle[schedule[i]]) > 1e-9) {
          ++local_wrong;
        }
      } else {
        ++local_failures;
        if (response.status.code() == StatusCode::kUnavailable) ++local_sheds;
      }
    }
    std::lock_guard<std::mutex> lock(agg_mu);
    accepted_ms.insert(accepted_ms.end(), local_ms.begin(), local_ms.end());
    sheds += local_sheds;
    failures += local_failures;
    wrong += local_wrong;
    retries += local_retries;
    retry_successes += local_rescued;
  };
  std::vector<std::thread> threads;
  // Enough submitters that arrivals keep their schedule even when the
  // service lags — otherwise the driver degenerates to closed-loop and
  // the shard queues never fill.
  for (int t = 0; t < 64; ++t) threads.emplace_back(submitter);
  for (auto& t : threads) t.join();

  OverloadResult out;
  out.offered_qps = target_qps;
  if (!accepted_ms.empty()) {
    std::sort(accepted_ms.begin(), accepted_ms.end());
    out.accepted_p99_ms =
        accepted_ms[static_cast<size_t>(0.99 * (accepted_ms.size() - 1))];
  }
  out.shed_rate = static_cast<double>(sheds) / schedule.size();
  out.failure_rate = static_cast<double>(failures) / schedule.size();
  out.wrong_answers = wrong;
  out.retries = retries;
  out.retry_successes = retry_successes;
  out.stats = service.stats();
  return out;
}

// --- Recovery section: chaos stream with supervision ----------------------

// Node-allocation demand of one route's compile, capped at `cap` (a
// return of `cap` means "at least cap": the measuring budget tripped).
uint64_t RouteDemand(const Ucq& query, const Database& db, PlanRoute route,
                     uint64_t cap) {
  auto lineage = BuildLineage(query, db);
  if (!lineage.ok()) std::exit(1);
  const Circuit& circuit = lineage.value();
  WorkBudget budget(cap);
  bool aborted = false;
  if (route == PlanRoute::kObdd) {
    ObddManager manager(circuit.Vars());
    manager.AttachBudget(&budget);
    aborted = CompileCircuitToObdd(&manager, circuit) < 0;
  } else {
    auto vtree =
        VtreeForStrategy(circuit, circuit.Vars(), VtreeStrategy::kBalanced);
    if (!vtree.ok()) std::exit(1);
    SddManager manager(std::move(vtree).value());
    manager.AttachBudget(&budget);
    aborted = CompileCircuitToSdd(&manager, circuit) < 0;
  }
  return aborted ? cap : budget.used();
}

// The ladder serves a request iff its cheaper route fits the budget.
uint64_t MinRouteDemand(const Ucq& query, const Database& db, uint64_t cap) {
  return std::min(RouteDemand(query, db, PlanRoute::kObdd, cap),
                  RouteDemand(query, db, PlanRoute::kSdd, cap));
}

struct RecoveryResult {
  double qps = 0.0;
  double availability = 0.0;   // non-poison arrivals eventually answered
  double accepted_p99_ms = 0.0;
  uint64_t wrong_answers = 0;
  uint64_t retries = 0;
  uint64_t non_poison_failed = 0;
  uint64_t poison_offered = 0;
  uint64_t poison_answered = 0;  // must stay 0: poison never compiles
  ServiceStats stats;
};

// Closed-loop chaos driver: a submitter pool drives the whole schedule
// through the service while (when `inject`) armed fault sites hang a
// shard worker past the heartbeat window every ~hang_every dequeues and
// kill one every ~death_every. Clients honor retry_after_ms exactly like
// the overload clients. Poison arrivals (schedule entry == poison_idx)
// are expected to fail typed; everything else counts against
// availability if it still fails after `max_attempts`.
RecoveryResult RunRecovery(const std::vector<Ucq>& shapes,
                           const std::vector<double>& oracle,
                           const std::vector<int>& schedule, int poison_idx,
                           const Database& db, const ServeOptions& options,
                           bool inject, int max_attempts) {
  if (inject) {
    fault::FaultSpec hang;
    hang.fire_every = 211;  // ~every 200 dequeues, a 40 ms stall
    hang.delay_ms = 40;
    fault::Arm("serve.shard.hang", hang);
    fault::FaultSpec death;
    death.fire_every = 389;  // offset cadence: restarts overlap hangs
    death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
    fault::Arm("serve.shard.death", death);
  }
  RecoveryResult out;
  {
    QueryService service(options);
    std::atomic<size_t> next(0);
    std::mutex agg_mu;
    std::vector<double> accepted_ms;
    Timer timer;
    auto submitter = [&] {
      std::vector<double> local_ms;
      uint64_t local_wrong = 0, local_retries = 0, local_failed = 0;
      uint64_t local_poison = 0, local_poison_ok = 0;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= schedule.size()) break;
        const bool is_poison = schedule[i] == poison_idx;
        QueryRequest request;
        request.query = shapes[schedule[i]];
        request.db = &db;
        request.route =
            schedule[i] % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
        QueryResponse response;
        double ms = 0;
        int attempts = 0;
        for (;;) {
          const auto start = std::chrono::steady_clock::now();
          response = service.Execute(request);
          ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
          ++attempts;
          if (response.status.ok() || attempts >= max_attempts ||
              response.status.code() != StatusCode::kUnavailable ||
              response.retry_after_ms <= 0) {
            break;
          }
          ++local_retries;
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(
                  std::min(response.retry_after_ms, 100.0)));
        }
        if (is_poison) {
          ++local_poison;
          if (response.status.ok()) ++local_poison_ok;
          continue;
        }
        if (response.status.ok()) {
          local_ms.push_back(ms);
          if (std::abs(response.probability - oracle[schedule[i]]) > 1e-9) {
            ++local_wrong;
          }
        } else {
          ++local_failed;
        }
      }
      std::lock_guard<std::mutex> lock(agg_mu);
      accepted_ms.insert(accepted_ms.end(), local_ms.begin(), local_ms.end());
      out.wrong_answers += local_wrong;
      out.retries += local_retries;
      out.non_poison_failed += local_failed;
      out.poison_offered += local_poison;
      out.poison_answered += local_poison_ok;
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) threads.emplace_back(submitter);
    for (auto& t : threads) t.join();
    out.qps = schedule.size() / timer.ElapsedSeconds();
    const uint64_t non_poison = schedule.size() - out.poison_offered;
    out.availability =
        non_poison == 0
            ? 1.0
            : static_cast<double>(non_poison - out.non_poison_failed) /
                  static_cast<double>(non_poison);
    if (!accepted_ms.empty()) {
      std::sort(accepted_ms.begin(), accepted_ms.end());
      out.accepted_p99_ms =
          accepted_ms[static_cast<size_t>(0.99 * (accepted_ms.size() - 1))];
    }
    out.stats = service.stats();
  }
  if (inject) fault::DisarmAll();
  return out;
}

// --- Introspection section: debug-server overhead under load --------------

// Minimal loopback GET draining the whole response (bench-local scraper;
// the debug server closes after one response).
bool ScrapeOnce(int port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  const std::string request = std::string("GET ") + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) < 0) {
    ::close(fd);
    return false;
  }
  char buf[4096];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
  ::close(fd);
  return true;
}

// Closed-loop matched stream for the overhead comparison: same schedule,
// same options, every accepted answer oracle-checked. Returns QPS.
// Runs the schedule (repeating whole passes until at least `min_seconds`
// of wall time has elapsed — a single pass over a warm plan cache is far
// too quick to amortize a 1 Hz scrape) and returns throughput in QPS.
// Every OK answer is checked against the oracle.
double RunMatchedStream(const std::vector<Ucq>& shapes,
                        const std::vector<double>& oracle,
                        const std::vector<int>& schedule, const Database& db,
                        QueryService* service, uint64_t* wrong,
                        double min_seconds = 0.0) {
  Timer timer;
  size_t total = 0;
  do {
    for (size_t at = 0; at < schedule.size();) {
      const size_t n = std::min<size_t>(32, schedule.size() - at);
      std::vector<QueryRequest> batch(n);
      for (size_t i = 0; i < n; ++i) {
        batch[i].query = shapes[schedule[at + i]];
        batch[i].db = &db;
        batch[i].route =
            schedule[at + i] % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      }
      const auto responses = service->ExecuteBatch(batch);
      for (size_t i = 0; i < n; ++i) {
        if (responses[i].status.ok() &&
            std::abs(responses[i].probability - oracle[schedule[at + i]]) >
                1e-9) {
          ++*wrong;
        }
      }
      at += n;
    }
    total += schedule.size();
  } while (timer.ElapsedSeconds() < min_seconds);
  return total / timer.ElapsedSeconds();
}

}  // namespace
}  // namespace ctsdd

int main(int argc, char** argv) {
  using namespace ctsdd;
  std::string json_path;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;
  int total_requests = 10000;
  int domain = 8;
  int debug_port = -1;
  int linger_secs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--trace_out=", 12) == 0) {
      trace_out = argv[i] + 12;
    }
    if (std::strncmp(argv[i], "--metrics_out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    }
    if (std::strncmp(argv[i], "--profile_out=", 14) == 0) {
      profile_out = argv[i] + 14;
    }
    if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      total_requests = std::atoi(argv[i] + 11);
    }
    if (std::strncmp(argv[i], "--domain=", 9) == 0) {
      domain = std::atoi(argv[i] + 9);
    }
    if (std::strncmp(argv[i], "--debug_port=", 13) == 0) {
      debug_port = std::atoi(argv[i] + 13);
    }
    if (std::strncmp(argv[i], "--linger_secs=", 14) == 0) {
      linger_secs = std::atoi(argv[i] + 14);
    }
  }
  // Edge count capped by the full bipartite graph (tiny domains).
  const int edges = std::min(4 * domain, domain * domain);
  const int generations = 20;

  bench::Header("serve: steady-state mixed UCQ stream over a changing db");
  const std::vector<Ucq> queries = QueryPopulation(domain);
  bench::Note("domain " + std::to_string(domain) + ", " +
              std::to_string(2 * domain + edges) + " tuples, " +
              std::to_string(queries.size()) + " query shapes, " +
              std::to_string(generations) + " db generations, " +
              std::to_string(total_requests) + " requests");

  // Bounded configuration: the production shape. Plans are tapes and no
  // manager outlives its compile, so the plan cache bounds residency.
  ServeOptions bounded;
  bounded.num_shards = 4;
  bounded.plan_cache_capacity = 48;
  const StreamResult bounded_run =
      RunStream(queries, bounded, total_requests, domain, edges, generations,
                /*batch_size=*/64, /*seed=*/42);

  // Unbounded baseline: a plan cache too large to ever evict, so every
  // distinct plan stays resident.
  ServeOptions unbounded = bounded;
  unbounded.plan_cache_capacity = 1 << 20;
  const StreamResult unbounded_run =
      RunStream(queries, unbounded, total_requests, domain, edges,
                generations, /*batch_size=*/64, /*seed=*/42);

  PrintTrajectory("bounded", bounded_run);
  PrintTrajectory("unbounded", unbounded_run);
  std::printf(
      "  [bounded]   %.0f qps, hit rate %.1f%%, p50 %.3f ms, p95 %.3f ms, "
      "p99 %.3f ms\n",
      bounded_run.qps, 100.0 * bounded_run.stats.plan_hit_rate(),
      bounded_run.stats.p50_ms, bounded_run.stats.p95_ms,
      bounded_run.stats.p99_ms);
  std::printf(
      "  [bounded]   plan evictions %llu, final %llu KB, peak compile "
      "nodes %d\n",
      static_cast<unsigned long long>(
          bounded_run.stats.totals.plan_evictions),
      static_cast<unsigned long long>(bounded_run.stats.totals.mem_bytes >>
                                      10),
      bounded_run.stats.totals.peak_live_nodes);
  std::printf(
      "  [unbounded] %.0f qps, hit rate %.1f%%, final %llu KB\n",
      unbounded_run.qps, 100.0 * unbounded_run.stats.plan_hit_rate(),
      static_cast<unsigned long long>(unbounded_run.stats.totals.mem_bytes >>
                                      10));

  bench::Header("serve: repeated query vs cold per-query compile");
  const Database steady_db = RandomContentDb(domain, edges, /*seed=*/1);
  const Ucq repeated = NonHierarchicalH0Query();
  const int reps = 100;
  // Cold path: full CompileQuery (lineage + OBDD + SDD + cross-check)
  // from scratch per request — the one-shot pipeline regime.
  const double cold_ms = bench::MinMillis(3, [&] {
    for (int i = 0; i < reps; ++i) {
      auto r = CompileQuery(repeated, steady_db, VtreeStrategy::kBalanced);
      if (!r.ok()) std::exit(1);
    }
  });
  // Served path: one shard, plan cached after the first request.
  ServeOptions single;
  single.num_shards = 1;
  double served_ms = 0.0;
  {
    QueryService service(single);
    Rng rng(7);
    QueryRequest request;
    request.query = repeated;
    request.db = &steady_db;
    request.route = PlanRoute::kSdd;
    (void)service.Execute(request);  // warm the plan
    served_ms = bench::MinMillis(3, [&] {
      for (int i = 0; i < reps; ++i) {
        request.weights.assign(steady_db.num_tuples(),
                               0.1 + 0.8 * rng.NextDouble());
        (void)service.Execute(request);
      }
    });
  }
  std::printf(
      "  cold %.3f ms/query, served %.3f ms/query (weights varied), "
      "speedup %.1fx\n",
      cold_ms / reps, served_ms / reps, cold_ms / served_ms);

  bench::Header("serve: overload — open-loop arrivals at 1.5x capacity");
  // 80% mixed shapes, 20% adversarial wide unions (4 disjuncts each).
  std::vector<Ucq> shapes = QueryPopulation(domain);
  const size_t normal_shapes = shapes.size();
  for (Ucq& wide : AdversarialPopulation(domain, 6)) {
    shapes.push_back(std::move(wide));
  }
  std::vector<double> oracle(shapes.size());
  for (size_t i = 0; i < shapes.size(); ++i) {
    auto r = CompileQuery(shapes[i], steady_db, VtreeStrategy::kBalanced);
    if (!r.ok()) std::exit(1);
    oracle[i] = r->probability;
  }
  Rng sched_rng(99);
  std::vector<int> schedule(3000);
  for (int& s : schedule) {
    s = sched_rng.NextBool(0.2)
            ? static_cast<int>(
                  normal_shapes + sched_rng.NextBelow(shapes.size() -
                                                      normal_shapes))
            : static_cast<int>(sched_rng.NextBelow(normal_shapes));
  }

  // The robustness configuration: bounded queues shed past depth 8 per
  // shard, a 50 ms deadline bounds queue wait, and an 8192-node compile
  // budget caps any single adversarial compile (tripping it runs the
  // degradation ladder to the alternate representation).
  ServeOptions overloaded = bounded;
  overloaded.max_queue_depth = 8;
  overloaded.default_deadline_ms = 50;
  overloaded.compile_node_budget = 8192;

  // Capacity: closed-loop throughput of this exact population and
  // configuration (warm caches, no pacing).
  double capacity_qps = 0.0;
  {
    QueryService service(overloaded);
    Timer timer;
    for (size_t at = 0; at < schedule.size();) {
      const size_t n = std::min<size_t>(64, schedule.size() - at);
      std::vector<QueryRequest> batch(n);
      for (size_t i = 0; i < n; ++i) {
        batch[i].query = shapes[schedule[at + i]];
        batch[i].db = &steady_db;
        batch[i].route = schedule[at + i] % 2 == 0 ? PlanRoute::kObdd
                                                   : PlanRoute::kSdd;
      }
      (void)service.ExecuteBatch(batch);
      at += n;
    }
    capacity_qps = schedule.size() / timer.ElapsedSeconds();
  }

  const OverloadResult unloaded = RunOverload(
      shapes, oracle, schedule, steady_db, overloaded, 0.5 * capacity_qps);
  const OverloadResult overload = RunOverload(
      shapes, oracle, schedule, steady_db, overloaded, 1.5 * capacity_qps);
  const double p99_ratio =
      unloaded.accepted_p99_ms > 0
          ? overload.accepted_p99_ms / unloaded.accepted_p99_ms
          : 0.0;
  const bool resident_ok = overload.stats.totals.peak_live_nodes <=
                           2 * unloaded.stats.totals.peak_live_nodes + 1024;
  std::printf("  capacity %.0f qps (closed loop, warm)\n", capacity_qps);
  std::printf(
      "  [0.5x]  accepted p99 %.3f ms, shed rate %.1f%%, failures %.1f%%\n",
      unloaded.accepted_p99_ms, 100.0 * unloaded.shed_rate,
      100.0 * unloaded.failure_rate);
  std::printf(
      "  [1.5x]  accepted p99 %.3f ms (%.2fx baseline), shed rate %.1f%%, "
      "failures %.1f%%, wrong answers %llu\n",
      overload.accepted_p99_ms, p99_ratio, 100.0 * overload.shed_rate,
      100.0 * overload.failure_rate,
      static_cast<unsigned long long>(overload.wrong_answers));
  std::printf(
      "  [1.5x]  peak live %d (0.5x peak %d, bounded: %s)\n",
      overload.stats.totals.peak_live_nodes,
      unloaded.stats.totals.peak_live_nodes, resident_ok ? "yes" : "NO");
  std::printf(
      "  [1.5x]  timeouts %llu, sheds %llu, budget aborts %llu, "
      "ladder fallbacks %llu\n",
      static_cast<unsigned long long>(overload.stats.totals.timeouts),
      static_cast<unsigned long long>(overload.stats.totals.sheds),
      static_cast<unsigned long long>(overload.stats.totals.budget_aborts),
      static_cast<unsigned long long>(overload.stats.totals.fallbacks));
  std::printf(
      "  [1.5x]  retries honoring retry_after_ms: %llu "
      "(%llu arrivals rescued)\n",
      static_cast<unsigned long long>(overload.retries),
      static_cast<unsigned long long>(overload.retry_successes));

  bench::Header("serve: memory pressure — hard ceiling at 60% of peak bytes");
  // Phase 1 (unconstrained): the same open-loop stream with accounting
  // flowing into a disabled governor (hard = 0: charges and peak are
  // tracked, nothing is enforced) to measure the unbounded accounted
  // footprint.
  const double mem_rate = 0.5 * capacity_qps;
  MemGovernor unbounded_gov;
  ServeOptions unconstrained_opts = overloaded;
  unconstrained_opts.mem_governor = &unbounded_gov;
  const OverloadResult unconstrained = RunOverload(
      shapes, oracle, schedule, steady_db, unconstrained_opts, mem_rate);
  const uint64_t unbounded_peak = unbounded_gov.peak_bytes();

  // Phase 2 (governed): hard ceiling at 60% of that peak, plus
  // byte-level reservation chaos — every ~257th governed reservation is
  // an injected allocation failure. Memory rejections are typed
  // RESOURCE_EXHAUSTED with a retry hint and final to these clients;
  // every accepted answer must still be oracle-exact, and the accounted
  // bytes must never cross the ceiling.
  const uint64_t mem_hard = unbounded_peak - unbounded_peak * 2 / 5;
  MemGovernor governed_gov;
  governed_gov.SetWatermarks(0, mem_hard);
  ServeOptions governed_opts = overloaded;
  governed_opts.mem_governor = &governed_gov;
  fault::FaultSpec flaky_reserve;
  flaky_reserve.fire_every = 257;
  flaky_reserve.action = [] {
    MemGovernor::FailNextReservationOnCurrentThread();
  };
  fault::Arm("mem.reserve", flaky_reserve);
  const OverloadResult governed = RunOverload(
      shapes, oracle, schedule, steady_db, governed_opts, mem_rate);
  fault::DisarmAll();

  const MemGovernorStats& mem = governed.stats.governor;
  const bool ceiling_ok =
      governed_gov.peak_bytes() <= mem_hard && mem.hard_breaches == 0;
  const double mem_p99_ratio =
      unconstrained.accepted_p99_ms > 0
          ? governed.accepted_p99_ms / unconstrained.accepted_p99_ms
          : 0.0;
  const bool mem_p99_ok =
      governed.accepted_p99_ms <= 2.0 * unconstrained.accepted_p99_ms;
  std::printf(
      "  unconstrained peak %.1f MB; governed ceiling %.1f MB (60%%)\n",
      unbounded_peak / (1024.0 * 1024.0), mem_hard / (1024.0 * 1024.0));
  std::printf(
      "  governed peak %.1f MB, hard breaches %llu (ceiling held: %s), "
      "wrong answers %llu\n",
      governed_gov.peak_bytes() / (1024.0 * 1024.0),
      static_cast<unsigned long long>(mem.hard_breaches),
      ceiling_ok ? "yes" : "NO",
      static_cast<unsigned long long>(governed.wrong_answers));
  std::printf(
      "  accepted p99 %.3f ms (%.2fx unconstrained %.3f ms, within 2x: %s), "
      "failures %.1f%%\n",
      governed.accepted_p99_ms, mem_p99_ratio, unconstrained.accepted_p99_ms,
      mem_p99_ok ? "yes" : "NO", 100.0 * governed.failure_rate);
  std::printf(
      "  admit denials %llu (injected %llu), compile cancels %llu, "
      "mem rejects %llu, mem aborts %llu, pressure evictions %llu\n",
      static_cast<unsigned long long>(mem.admit_denials),
      static_cast<unsigned long long>(mem.injected_denials),
      static_cast<unsigned long long>(mem.compile_cancels),
      static_cast<unsigned long long>(governed.stats.totals.mem_rejects),
      static_cast<unsigned long long>(governed.stats.totals.mem_aborts),
      static_cast<unsigned long long>(
          governed.stats.totals.pressure_evictions));
  std::printf(
      "  tier transitions soft %llu / critical %llu; rejected by cause: "
      "memory %llu, quarantine %llu\n",
      static_cast<unsigned long long>(mem.soft_transitions),
      static_cast<unsigned long long>(mem.critical_transitions),
      static_cast<unsigned long long>(governed.stats.rejected_memory),
      static_cast<unsigned long long>(governed.stats.rejected_quarantine));

  bench::Header("serve: recovery — chaos stream under supervision");
  // Poison: the shape whose *cheaper* ladder route demands the most
  // nodes. The serving budget is pinned between the rest of the
  // population and the poison shape, so normal traffic always has a
  // route that fits while the poison exhausts both — the genuine
  // negative-cache case (measured, not injected).
  const uint64_t demand_cap = 1u << 16;
  std::vector<uint64_t> demands(shapes.size());
  for (size_t i = 0; i < shapes.size(); ++i) {
    demands[i] = MinRouteDemand(shapes[i], steady_db, demand_cap);
  }
  const int poison_idx = static_cast<int>(
      std::max_element(demands.begin(), demands.end()) - demands.begin());
  uint64_t second_max = 0;
  for (size_t i = 0; i < demands.size(); ++i) {
    if (static_cast<int>(i) != poison_idx) {
      second_max = std::max(second_max, demands[i]);
    }
  }
  // 4x headroom over the cold-measured demand: a warm pooled manager can
  // cost more than a fresh one (apply-cache misses against resident
  // nodes), and the budget must never exhaust on legitimate traffic —
  // a double-route exhaust is a quarantine strike.
  const uint64_t recovery_budget = 4 * second_max + 512;
  const bool poison_separable = demands[poison_idx] > recovery_budget + 256;
  bench::Note("poison shape: min-route demand " +
              std::to_string(demands[poison_idx]) + " nodes vs population max " +
              std::to_string(second_max) + "; serving budget " +
              std::to_string(recovery_budget) +
              (poison_separable ? "" : " (WARNING: not separable)"));

  ServeOptions recovery = bounded;
  recovery.max_queue_depth = 16;
  recovery.compile_node_budget = recovery_budget;
  recovery.heartbeat_window_ms = 20;
  recovery.quarantine_threshold = 3;
  recovery.quarantine_parole_ms = 120000;  // beyond the stream: permanent
  recovery.quarantine_parole_max_ms = 120000;

  // ~2% of the stream is the poison shape; the rest draws uniformly from
  // the normal population.
  Rng rec_rng(4242);
  std::vector<int> rec_schedule(total_requests);
  for (int& s : rec_schedule) {
    s = rec_rng.NextBool(0.02)
            ? poison_idx
            : static_cast<int>(rec_rng.NextBelow(normal_shapes));
  }

  const RecoveryResult fault_free =
      RunRecovery(shapes, oracle, rec_schedule, poison_idx, steady_db,
                  recovery, /*inject=*/false, /*max_attempts=*/5);
  const RecoveryResult chaos =
      RunRecovery(shapes, oracle, rec_schedule, poison_idx, steady_db,
                  recovery, /*inject=*/true, /*max_attempts=*/5);
  const double recovery_p99_ratio =
      fault_free.accepted_p99_ms > 0
          ? chaos.accepted_p99_ms / fault_free.accepted_p99_ms
          : 0.0;
  // Tail gate: recovery may add at most one detection window to the
  // accepted tail on top of 1.5x the fault-free p99. The additive term
  // matters when the fault-free baseline is sub-millisecond (long warm
  // streams are nearly all cache hits): a victim queued behind a stall
  // waits up to a window before supervision acts, and gating on the
  // bare ratio would then fail runs whose absolute tail is fine.
  const bool recovery_p99_ok =
      chaos.accepted_p99_ms <=
      1.5 * fault_free.accepted_p99_ms + recovery.heartbeat_window_ms;
  // Resident bound under chaos: every restart leaves a carcass whose
  // frozen nodes coexist with the fresh worker's recompiles until the
  // supervisor reaps it, so the peak may exceed the fault-free peak by
  // up to one worker's share per restart (skew makes per-shard share an
  // estimate, hence the 2x base).
  const int per_worker_share = std::max(
      1, fault_free.stats.totals.peak_live_nodes /
             static_cast<int>(recovery.num_shards));
  const bool recovery_resident_ok =
      chaos.stats.totals.peak_live_nodes <=
      2 * fault_free.stats.totals.peak_live_nodes +
          static_cast<int>(chaos.stats.supervision.shard_restarts) *
              per_worker_share +
          1024;
  // Each quarantine strike is one full ladder compile burned on the
  // poison signature. Sequentially that is bounded by the threshold;
  // concurrent submitters can each have one pre-quarantine compile in
  // flight, hence the allowance.
  const bool poison_bounded =
      chaos.stats.supervision.quarantine_strikes <=
      static_cast<uint64_t>(recovery.quarantine_threshold) + 8;
  std::printf(
      "  [fault-free] %.0f qps, availability %.3f%% (%llu non-poison failed, "
      "%llu budget aborts), accepted p99 %.3f ms\n",
      fault_free.qps, 100.0 * fault_free.availability,
      static_cast<unsigned long long>(fault_free.non_poison_failed),
      static_cast<unsigned long long>(fault_free.stats.totals.budget_aborts),
      fault_free.accepted_p99_ms);
  std::printf(
      "  [chaos]      %.0f qps, availability %.3f%% (non-poison), accepted "
      "p99 %.3f ms (%.2fx fault-free, within 1.5x + window: %s), "
      "wrong answers %llu\n",
      chaos.qps, 100.0 * chaos.availability, chaos.accepted_p99_ms,
      recovery_p99_ratio, recovery_p99_ok ? "yes" : "NO",
      static_cast<unsigned long long>(chaos.wrong_answers));
  std::printf(
      "  [chaos]      hangs %llu, deaths %llu, restarts %llu, failed on "
      "restart %llu, client retries %llu\n",
      static_cast<unsigned long long>(chaos.stats.supervision.hangs_detected),
      static_cast<unsigned long long>(chaos.stats.supervision.deaths_detected),
      static_cast<unsigned long long>(chaos.stats.supervision.shard_restarts),
      static_cast<unsigned long long>(
          chaos.stats.supervision.failed_on_restart),
      static_cast<unsigned long long>(chaos.retries));
  std::printf(
      "  [chaos]      poison: %llu offered, %llu strikes (bounded: %s), %llu "
      "fast rejects, %llu answered\n",
      static_cast<unsigned long long>(chaos.poison_offered),
      static_cast<unsigned long long>(
          chaos.stats.supervision.quarantine_strikes),
      poison_bounded ? "yes" : "NO",
      static_cast<unsigned long long>(
          chaos.stats.supervision.quarantine_rejects),
      static_cast<unsigned long long>(chaos.poison_answered));
  std::printf(
      "  [chaos]      peak live %d (fault-free %d, bounded: %s)\n",
      chaos.stats.totals.peak_live_nodes,
      fault_free.stats.totals.peak_live_nodes,
      recovery_resident_ok ? "yes" : "NO");

  bench::Header("serve: introspection — debug server idle and scraped at 1 Hz");
  // Three matched runs of the same warm WMC-dominated schedule: no debug
  // server, server bound but idle, and server scraped at ~1 Hz (the
  // Prometheus cadence). Every accepted answer is oracle-checked in all
  // three — introspection must never perturb results, only (boundedly)
  // throughput.
  Rng intro_rng(2026);
  std::vector<int> intro_schedule(std::max(1000, total_requests / 4));
  for (int& s : intro_schedule) {
    s = static_cast<int>(intro_rng.NextBelow(normal_shapes));
  }
  ServeOptions intro = bounded;
  intro.num_shards = 2;
  uint64_t intro_wrong = 0;
  double qps_no_debug = 0, qps_idle = 0, qps_scraped = 0;
  // Each configuration runs for >= kIntroSeconds so a 1 Hz scraper gets
  // several scrapes in and their cost is amortized over a real stream;
  // best-of-kIntroReps per configuration shaves scheduler noise (on a
  // 1-CPU host one badly-timed preemption can cost 20%).
  const double kIntroSeconds = 3.0;
  const int kIntroReps = 2;
  std::atomic<uint64_t> scrape_count{0}, scrape_attempts{0};
  for (int rep = 0; rep < kIntroReps; ++rep) {
    {
      QueryService service(intro);
      qps_no_debug = std::max(
          qps_no_debug, RunMatchedStream(shapes, oracle, intro_schedule,
                                         steady_db, &service, &intro_wrong,
                                         kIntroSeconds));
    }
    {
      ServeOptions with_debug = intro;
      with_debug.debug_port = 0;
      QueryService service(with_debug);
      qps_idle = std::max(
          qps_idle, RunMatchedStream(shapes, oracle, intro_schedule,
                                     steady_db, &service, &intro_wrong,
                                     kIntroSeconds));
    }
    {
      ServeOptions with_debug = intro;
      with_debug.debug_port = 0;
      QueryService service(with_debug);
      std::atomic<bool> stop{false};
      std::thread scraper([&, port = service.debug_port()] {
        const char* paths[] = {"/metrics", "/healthz", "/statusz", "/plansz"};
        size_t i = 0;
        // Deadline-based 1 Hz cadence: under full CPU contention
        // individual sleeps stretch, so pace against absolute wakeup
        // times instead of accumulating sleep_for drift.
        auto next = std::chrono::steady_clock::now();
        while (!stop.load(std::memory_order_relaxed)) {
          scrape_attempts.fetch_add(1, std::memory_order_relaxed);
          if (port > 0 && ScrapeOnce(port, paths[i++ % 4])) {
            scrape_count.fetch_add(1, std::memory_order_relaxed);
          }
          next += std::chrono::seconds(1);
          while (!stop.load(std::memory_order_relaxed) &&
                 std::chrono::steady_clock::now() < next) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }
      });
      qps_scraped = std::max(
          qps_scraped, RunMatchedStream(shapes, oracle, intro_schedule,
                                        steady_db, &service, &intro_wrong,
                                        kIntroSeconds));
      stop.store(true);
      scraper.join();
    }
  }
  const double idle_ratio = qps_no_debug > 0 ? qps_idle / qps_no_debug : 0.0;
  const double scraped_ratio =
      qps_no_debug > 0 ? qps_scraped / qps_no_debug : 0.0;
  // Honest yes/NO on the acceptance gates (noisy on a 1-CPU host where
  // the scraper thread steals cycles outright; recorded, not enforced).
  const bool idle_ok = idle_ratio >= 0.98;
  const bool scraped_ok = scraped_ratio >= 0.95;
  std::printf(
      "  no-debug %.0f qps; idle %.0f qps (%.3fx, within 2%%: %s); "
      "scraped %.0f qps (%.3fx, within 5%%: %s)\n",
      qps_no_debug, qps_idle, idle_ratio, idle_ok ? "yes" : "NO", qps_scraped,
      scraped_ratio, scraped_ok ? "yes" : "NO");
  std::printf(
      "  %llu/%llu scrapes served, wrong answers across all runs: %llu\n",
      static_cast<unsigned long long>(scrape_count.load()),
      static_cast<unsigned long long>(scrape_attempts.load()),
      static_cast<unsigned long long>(intro_wrong));

  if (!profile_out.empty()) {
    bench::Header("serve: sampling profile (collapsed stacks)");
    if (!obs::Profiler::Supported()) {
      std::fprintf(stderr, "  profiler unsupported on this platform\n");
    } else {
      // The driving thread does real per-request work (batch assembly,
      // oracle checks) — register it so the profile covers the whole
      // closed loop, not just the worker threads. A fresh service per
      // pass keeps the stream compile-heavy: warm cached serving burns
      // so little CPU that tick-granularity CPU-clock timers (~250
      // fires per CPU-second per thread) would see almost nothing.
      obs::Profiler::RegisterCurrentThread("bench-main");
      obs::Profiler::Clear();
      obs::Profiler::Arm();
      uint64_t profiled_wrong = 0;
      Timer profile_timer;
      do {
        QueryService service(intro);
        (void)RunMatchedStream(shapes, oracle, intro_schedule, steady_db,
                               &service, &profiled_wrong);
      } while (profile_timer.ElapsedSeconds() < 2.0);
      obs::Profiler::Disarm();
      const obs::Profiler::Stats pstats = obs::Profiler::stats();
      const std::string collapsed = obs::Profiler::Collapsed();
      if (std::FILE* f = std::fopen(profile_out.c_str(), "w")) {
        std::fwrite(collapsed.data(), 1, collapsed.size(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "cannot write %s\n", profile_out.c_str());
        return 1;
      }
      std::printf(
          "  %llu samples (%llu dropped, %llu truncated) -> %s\n",
          static_cast<unsigned long long>(pstats.samples),
          static_cast<unsigned long long>(pstats.dropped),
          static_cast<unsigned long long>(pstats.truncated),
          profile_out.c_str());
    }
  }

  // --- Traced segment: a short stream with the tracer armed ---------------
  // Fresh database content (cold compiles) and exec workers, so the
  // exported trace carries the full span taxonomy: request tracks,
  // queue.wait, shard.process, compile (+ budget.lease instants), wmc,
  // and exec.task spans. The segment runs
  // at a capped domain regardless of --domain: the export is a taxonomy
  // artifact gated by scripts/validate_trace.py, and it must fit the
  // per-thread rings without wrapping (a wrapped ring overwrites early
  // terminal events and leaves async request tracks unbalanced).
  if (!trace_out.empty() || !metrics_out.empty()) {
    bench::Header("serve: traced segment (tracer armed)");
    obs::Tracer::Clear();
    obs::Tracer::Arm(/*events_per_thread=*/size_t{1} << 17);
    ServeOptions traced = bounded;
    traced.num_shards = 2;
    traced.exec_workers = 2;
    traced.heartbeat_window_ms = 200;
    const int traced_domain = std::min(domain, 5);
    const int traced_edges =
        std::min(4 * traced_domain, traced_domain * traced_domain);
    const std::vector<Ucq> traced_queries = QueryPopulation(traced_domain);
    {
      QueryService service(traced);
      const Database traced_db =
          RandomContentDb(traced_domain, traced_edges, /*seed=*/777);
      // Only a semantic SDD compile forks, and only at a vtree node with a
      // child scope wider than one word (kSmallScopeVars). On this
      // database the population's lineages have at most 11 variables or
      // more than kSemanticCircuitMaxVars, so none forks. H0 over the
      // complete 3x3 bipartite database has 15: its cold compile forks
      // and emits exec.task spans.
      const Database fork_db = BipartiteRstDatabase(3, 0.4);
      QueryRequest fork_request;
      fork_request.query = NonHierarchicalH0Query();
      fork_request.db = &fork_db;
      fork_request.route = PlanRoute::kSdd;
      Rng rng(123);
      std::vector<QueryRequest> batch = {fork_request};
      for (int i = 0; i < 256; ++i) {
        QueryRequest request;
        request.query = traced_queries[rng.NextBelow(traced_queries.size())];
        request.db = &traced_db;
        request.route =
            rng.NextBool(0.5) ? PlanRoute::kObdd : PlanRoute::kSdd;
        batch.push_back(std::move(request));
        if (batch.size() == 32) {
          (void)service.ExecuteBatch(batch);
          batch.clear();
        }
      }
      if (!batch.empty()) (void)service.ExecuteBatch(batch);
      if (!metrics_out.empty()) {
        const std::string metrics_json = service.MetricsJson();
        if (std::FILE* f = std::fopen(metrics_out.c_str(), "w")) {
          std::fwrite(metrics_json.data(), 1, metrics_json.size(), f);
          std::fclose(f);
          std::printf("  metrics snapshot -> %s\n", metrics_out.c_str());
        } else {
          std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
          return 1;
        }
      }
    }
    obs::Tracer::Disarm();
    if (!trace_out.empty()) {
      if (!obs::Tracer::WriteChromeTrace(trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("  chrome trace -> %s (%llu events dropped)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(obs::Tracer::Dropped()));
    }
    obs::Tracer::Clear();
  }

  if (!json_path.empty()) {
    bench::WriteMetaSection(
        json_path,
        {{"governed_ceiling_bytes", static_cast<double>(mem_hard)}});
    // Plateau: sampling instants are noisy (the cache fills unevenly
    // across shards), so compare halves — the second half's peak must
    // not exceed 2x the first half's.
    const auto& d = bounded_run.kb_per_decile;
    const int first_half = *std::max_element(d.begin(), d.begin() + 5);
    const int second_half = *std::max_element(d.begin() + 5, d.end());
    const bool plateau_ok = second_half <= 2 * first_half;
    bench::WriteJsonSection(
        json_path, "serve_steady_state",
        {
            {"requests", static_cast<double>(total_requests)},
            {"qps", bounded_run.qps},
            {"p50_ms", bounded_run.stats.p50_ms},
            {"p95_ms", bounded_run.stats.p95_ms},
            {"p99_ms", bounded_run.stats.p99_ms},
            {"plan_hit_rate", bounded_run.stats.plan_hit_rate()},
            {"plan_evictions",
             static_cast<double>(bounded_run.stats.totals.plan_evictions)},
            {"final_resident_kb",
             static_cast<double>(bounded_run.stats.totals.mem_bytes >> 10)},
            {"peak_live_nodes",
             static_cast<double>(bounded_run.stats.totals.peak_live_nodes)},
            {"plateau_ok", plateau_ok ? 1.0 : 0.0},
        },
        /*append=*/true);
    bench::WriteJsonSection(
        json_path, "serve_unbounded_baseline",
        {
            {"qps", unbounded_run.qps},
            {"second_decile_resident_kb",
             static_cast<double>(unbounded_run.kb_per_decile[1])},
            {"final_resident_kb",
             static_cast<double>(unbounded_run.stats.totals.mem_bytes >> 10)},
        },
        /*append=*/true);
    bench::WriteJsonSection(
        json_path, "serve_repeated_vs_cold",
        {
            {"cold_ms_per_query", cold_ms / reps},
            {"served_ms_per_query", served_ms / reps},
            {"speedup", cold_ms / served_ms},
        },
        /*append=*/true);
    bench::WriteJsonSection(
        json_path, "serve_overload",
        {
            {"capacity_qps", capacity_qps},
            {"offered_multiplier", 1.5},
            {"adversarial_fraction", 0.2},
            {"accepted_p99_ms", overload.accepted_p99_ms},
            {"unloaded_p99_ms", unloaded.accepted_p99_ms},
            {"p99_ratio", p99_ratio},
            {"shed_rate", overload.shed_rate},
            {"failure_rate", overload.failure_rate},
            {"wrong_answers",
             static_cast<double>(overload.wrong_answers)},
            {"peak_live_nodes",
             static_cast<double>(overload.stats.totals.peak_live_nodes)},
            {"resident_bounded", resident_ok ? 1.0 : 0.0},
            {"gc_pause_p99_ms", overload.stats.gc_pause_p99_ms},
            {"client_retries", static_cast<double>(overload.retries)},
            {"retry_successes",
             static_cast<double>(overload.retry_successes)},
        },
        /*append=*/true);
    bench::WriteJsonSection(
        json_path, "memory_pressure",
        {
            {"unbounded_peak_bytes", static_cast<double>(unbounded_peak)},
            {"hard_bytes", static_cast<double>(mem_hard)},
            {"governed_peak_bytes",
             static_cast<double>(governed_gov.peak_bytes())},
            {"hard_breaches", static_cast<double>(mem.hard_breaches)},
            {"ceiling_held", ceiling_ok ? 1.0 : 0.0},
            {"wrong_answers", static_cast<double>(governed.wrong_answers)},
            {"accepted_p99_ms", governed.accepted_p99_ms},
            {"unconstrained_p99_ms", unconstrained.accepted_p99_ms},
            {"p99_ratio", mem_p99_ratio},
            {"p99_ok", mem_p99_ok ? 1.0 : 0.0},
            {"failure_rate", governed.failure_rate},
            {"admit_denials", static_cast<double>(mem.admit_denials)},
            {"injected_denials", static_cast<double>(mem.injected_denials)},
            {"compile_cancels", static_cast<double>(mem.compile_cancels)},
            {"mem_rejects",
             static_cast<double>(governed.stats.totals.mem_rejects)},
            {"mem_aborts",
             static_cast<double>(governed.stats.totals.mem_aborts)},
            {"pressure_evictions",
             static_cast<double>(governed.stats.totals.pressure_evictions)},
            {"soft_transitions", static_cast<double>(mem.soft_transitions)},
            {"critical_transitions",
             static_cast<double>(mem.critical_transitions)},
            {"rejected_memory",
             static_cast<double>(governed.stats.rejected_memory)},
            {"rejected_quarantine",
             static_cast<double>(governed.stats.rejected_quarantine)},
        },
        /*append=*/true);
    bench::WriteJsonSection(
        json_path, "recovery",
        {
            {"requests", static_cast<double>(total_requests)},
            {"poison_fraction", 0.02},
            {"poison_min_demand",
             static_cast<double>(demands[poison_idx])},
            {"population_max_demand", static_cast<double>(second_max)},
            {"compile_node_budget", static_cast<double>(recovery_budget)},
            {"poison_separable", poison_separable ? 1.0 : 0.0},
            {"fault_free_qps", fault_free.qps},
            {"chaos_qps", chaos.qps},
            {"availability", chaos.availability},
            {"fault_free_p99_ms", fault_free.accepted_p99_ms},
            {"chaos_p99_ms", chaos.accepted_p99_ms},
            {"p99_ratio", recovery_p99_ratio},
            {"p99_ok", recovery_p99_ok ? 1.0 : 0.0},
            {"wrong_answers", static_cast<double>(chaos.wrong_answers)},
            {"client_retries", static_cast<double>(chaos.retries)},
            {"hangs_detected",
             static_cast<double>(chaos.stats.supervision.hangs_detected)},
            {"deaths_detected",
             static_cast<double>(chaos.stats.supervision.deaths_detected)},
            {"shard_restarts",
             static_cast<double>(chaos.stats.supervision.shard_restarts)},
            {"failed_on_restart",
             static_cast<double>(chaos.stats.supervision.failed_on_restart)},
            {"quarantine_strikes",
             static_cast<double>(chaos.stats.supervision.quarantine_strikes)},
            {"quarantine_rejects",
             static_cast<double>(chaos.stats.supervision.quarantine_rejects)},
            {"poison_offered", static_cast<double>(chaos.poison_offered)},
            {"poison_answered", static_cast<double>(chaos.poison_answered)},
            {"poison_strikes_bounded", poison_bounded ? 1.0 : 0.0},
            {"peak_live_nodes",
             static_cast<double>(chaos.stats.totals.peak_live_nodes)},
            {"resident_bounded", recovery_resident_ok ? 1.0 : 0.0},
        },
        /*append=*/true);
    bench::WriteJsonSection(
        json_path, "serve_introspection",
        {
            {"requests", static_cast<double>(intro_schedule.size())},
            {"qps_no_debug", qps_no_debug},
            {"qps_debug_idle", qps_idle},
            {"qps_debug_scraped_1hz", qps_scraped},
            {"idle_ratio", idle_ratio},
            {"scraped_ratio", scraped_ratio},
            {"idle_within_2pct", idle_ok ? 1.0 : 0.0},
            {"scraped_within_5pct", scraped_ok ? 1.0 : 0.0},
            {"scrapes_served", static_cast<double>(scrape_count.load())},
            {"scrape_attempts", static_cast<double>(scrape_attempts.load())},
            {"wrong_answers", static_cast<double>(intro_wrong)},
        },
        /*append=*/true);
  }

  // --- Linger: keep a debug-served instance alive for external scrapes ----
  // CI's smoke-scrape job backgrounds `bench_serve --debug_port=P
  // --linger_secs=N` and curls the endpoints; light background load keeps
  // /plansz populated and gives /profilez something to sample.
  if (linger_secs > 0) {
    bench::Header("serve: lingering for external scrapes");
    ServeOptions lingering = bounded;
    lingering.num_shards = 2;
    lingering.debug_port = debug_port >= 0 ? debug_port : 0;
    QueryService service(lingering);
    std::printf("  debug server on 127.0.0.1:%d for %d s\n",
                service.debug_port(), linger_secs);
    std::fflush(stdout);
    std::atomic<bool> stop{false};
    std::thread load([&] {
      Rng rng(555);
      while (!stop.load(std::memory_order_relaxed)) {
        QueryRequest request;
        request.query = shapes[rng.NextBelow(normal_shapes)];
        request.db = &steady_db;
        request.route =
            rng.NextBool(0.5) ? PlanRoute::kObdd : PlanRoute::kSdd;
        (void)service.Execute(request);
        // Fast enough cadence that an external /profilez scrape has CPU
        // to sample, slow enough to leave the box responsive.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    std::this_thread::sleep_for(std::chrono::seconds(linger_secs));
    stop.store(true);
    load.join();
  }
  return 0;
}
