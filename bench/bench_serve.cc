// Serving smoke driver for the serve/ subsystem: the trace and metrics
// exports CI validates, and a lingering debug-served instance for CI's
// endpoint scrapes. Serve throughput and latency are measured by
// perfbench/ (serve_warm, serve_cold, serve_churn), which checks every
// answer; serve behaviour under eviction, overload, chaos and memory
// pressure is asserted in tests/serve_test.cc and
// tests/debug_server_test.cc.
//
//   bench_serve [--trace_out=PATH] [--metrics_out=PATH]
//               [--debug_port=P --linger_secs=N]
//
// The traced segment always runs and exits 1 if any response is not OK.
// --trace_out writes its Chrome trace (scripts/validate_trace.py),
// --metrics_out the service's metrics snapshot as JSON. --linger_secs
// then keeps a service with the debug server on --debug_port (0 or
// absent: an ephemeral port) alive for N seconds under light load.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "db/lineage.h"
#include "db/query.h"
#include "obs/trace.h"
#include "perfbench/serve_inputs.h"
#include "serve/query_service.h"
#include "util/random.h"

namespace ctsdd {
namespace {

// The database and query generators are shared with perfbench, so a
// database seed and a shape index mean the same input in both harnesses.
using perfbench::QueryPopulation;
using perfbench::RandomContentDb;

// The export is a taxonomy artifact gated by scripts/validate_trace.py,
// so the stream is small: it must fit the per-thread rings without
// wrapping (a wrapped ring overwrites early terminal events and leaves
// async request tracks unbalanced).
constexpr int kDomain = 5;
constexpr int kEdges = std::min(4 * kDomain, kDomain * kDomain);

ServeOptions BaseOptions() {
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 48;
  return options;
}

// A short stream with the tracer armed, over fresh database content (cold
// compiles) and exec workers, so the exported trace carries the full span
// taxonomy: request tracks, queue.wait, shard.process, compile (+
// budget.lease instants), wmc, and exec.task spans. Returns the number
// of responses that were not OK, or -1 if an export could not be written.
int RunTracedSegment(const std::string& trace_out,
                     const std::string& metrics_out) {
  bench::Header("serve: traced segment (tracer armed)");
  obs::Tracer::Clear();
  obs::Tracer::Arm(/*events_per_thread=*/size_t{1} << 17);
  ServeOptions options = BaseOptions();
  options.exec_workers = 2;
  options.heartbeat_window_ms = 200;
  const std::vector<Ucq> queries = QueryPopulation(kDomain);
  int failures = 0;
  {
    QueryService service(options);
    const Database db = RandomContentDb(kDomain, kEdges, /*seed=*/777);
    // Only a semantic SDD compile forks, and only at a vtree node with a
    // child scope wider than one word (kSmallScopeVars). On this database
    // the population's lineages have at most 11 variables or more than
    // kSemanticCircuitMaxVars, so none forks. H0 over the complete 3x3
    // bipartite database has 15: its cold compile forks and emits
    // exec.task spans.
    const Database fork_db = BipartiteRstDatabase(3, 0.4);
    QueryRequest fork_request;
    fork_request.query = NonHierarchicalH0Query();
    fork_request.db = &fork_db;
    fork_request.route = PlanRoute::kSdd;
    Rng rng(123);
    std::vector<QueryRequest> batch = {fork_request};
    auto flush = [&] {
      for (const QueryResponse& response : service.ExecuteBatch(batch)) {
        if (response.status.ok()) continue;
        std::fprintf(stderr, "traced request failed: %s\n",
                     response.status.ToString().c_str());
        ++failures;
      }
      batch.clear();
    };
    for (int i = 0; i < 256; ++i) {
      QueryRequest request;
      request.query = queries[rng.NextBelow(queries.size())];
      request.db = &db;
      request.route = rng.NextBool(0.5) ? PlanRoute::kObdd : PlanRoute::kSdd;
      batch.push_back(std::move(request));
      if (batch.size() == 32) flush();
    }
    if (!batch.empty()) flush();
    std::printf("  %zu shapes at domain %d, %d failed responses\n",
                queries.size(), kDomain, failures);
    if (!metrics_out.empty()) {
      const std::string metrics_json = service.MetricsJson();
      std::FILE* f = std::fopen(metrics_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
        return -1;
      }
      std::fwrite(metrics_json.data(), 1, metrics_json.size(), f);
      std::fclose(f);
      std::printf("  metrics snapshot -> %s\n", metrics_out.c_str());
    }
  }
  obs::Tracer::Disarm();
  if (!trace_out.empty()) {
    if (!obs::Tracer::WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return -1;
    }
    std::printf("  chrome trace -> %s (%llu events dropped)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(obs::Tracer::Dropped()));
  }
  obs::Tracer::Clear();
  return failures;
}

// Keeps a debug-served instance alive for external scrapes. CI's
// smoke-scrape job backgrounds `bench_serve --debug_port=P
// --linger_secs=N` and curls the endpoints; light background load keeps
// /plansz populated and gives /profilez something to sample.
void Linger(int debug_port, int linger_secs) {
  bench::Header("serve: lingering for external scrapes");
  ServeOptions options = BaseOptions();
  options.debug_port = std::max(debug_port, 0);
  const std::vector<Ucq> queries = QueryPopulation(kDomain);
  const Database db = RandomContentDb(kDomain, kEdges, /*seed=*/1);
  QueryService service(options);
  std::printf("  debug server on 127.0.0.1:%d for %d s\n",
              service.debug_port(), linger_secs);
  std::fflush(stdout);
  std::atomic<bool> stop{false};
  std::thread load([&] {
    Rng rng(555);
    while (!stop.load(std::memory_order_relaxed)) {
      QueryRequest request;
      request.query = queries[rng.NextBelow(queries.size())];
      request.db = &db;
      request.route = rng.NextBool(0.5) ? PlanRoute::kObdd : PlanRoute::kSdd;
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

}  // namespace
}  // namespace ctsdd

int main(int argc, char** argv) {
  std::string trace_out;
  std::string metrics_out;
  int debug_port = -1;
  int linger_secs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace_out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics_out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--debug_port=", 13) == 0) {
      debug_port = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--linger_secs=", 14) == 0) {
      linger_secs = std::atoi(argv[i] + 14);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (ctsdd::RunTracedSegment(trace_out, metrics_out) != 0) return 1;
  if (linger_secs > 0) ctsdd::Linger(debug_port, linger_secs);
  return 0;
}
