// Tests for the live introspection stack: the debug HTTP server's
// framing layer, every QueryService endpoint against live state, the
// per-plan telemetry registry's conservation guarantee, and concurrent
// scraping during chaos load (the TSan target).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "db/query.h"
#include "db/query_compile.h"
#include "gtest/gtest.h"
#include "obs/debug_server.h"
#include "obs/profiler.h"
#include "serve/plan_stats.h"
#include "serve/query_service.h"
#include "serve/signature.h"
#include "util/fault_injection.h"

namespace ctsdd {
namespace {

// --- Minimal loopback HTTP client -----------------------------------------

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

// Sends raw bytes to 127.0.0.1:port and parses the one-shot response.
HttpResponse FetchRaw(int port, const std::string& request) {
  HttpResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  timeval tv{};
  tv.tv_sec = 30;  // /tracez and /profilez block on purpose
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) return out;
  const std::string status_line = raw.substr(0, line_end);
  if (status_line.size() > 12) out.status = std::atoi(&status_line[9]);
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return out;
  size_t pos = line_end + 2;
  while (pos < header_end) {
    const size_t eol = raw.find("\r\n", pos);
    const std::string line = raw.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      out.headers[line.substr(0, colon)] = line.substr(v);
    }
    pos = eol + 2;
  }
  out.body = raw.substr(header_end + 4);
  return out;
}

HttpResponse Get(int port, const std::string& path) {
  return FetchRaw(port, "GET " + path +
                            " HTTP/1.1\r\nHost: localhost\r\n"
                            "Connection: close\r\n\r\n");
}

// --- Framing layer ---------------------------------------------------------

TEST(DebugServerTest, ServesHandlersAndRejectsBadRequests) {
  obs::DebugServer server;
  server.Handle("/hello", [](const obs::DebugServer::Request& req) {
    obs::DebugServer::Response r;
    r.body = "hello " + std::to_string(req.IntParam("n", 7, 0, 100));
    return r;
  });
  ASSERT_TRUE(server.Start(0)) << server.error();
  const int port = server.port();
  ASSERT_GT(port, 0);

  HttpResponse r = Get(port, "/hello");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "hello 7");

  // Query parameters reach the handler; IntParam clamps to its range.
  r = Get(port, "/hello?n=42");
  EXPECT_EQ(r.body, "hello 42");
  r = Get(port, "/hello?n=100000");
  EXPECT_EQ(r.body, "hello 100");

  // Unknown path: 404 listing the registered endpoints.
  r = Get(port, "/nope");
  EXPECT_EQ(r.status, 404);
  EXPECT_NE(r.body.find("/hello"), std::string::npos);

  // Non-GET: 405 with an Allow header.
  r = FetchRaw(port,
               "POST /hello HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(r.status, 405);
  EXPECT_EQ(r.headers["Allow"], "GET");

  // Oversized request: 413 without reading it all.
  r = FetchRaw(port, "GET /hello?pad=" +
                         std::string(obs::DebugServer::kMaxRequestBytes, 'x') +
                         " HTTP/1.1\r\n\r\n");
  EXPECT_EQ(r.status, 413);

  // Unparseable request line: 400.
  r = FetchRaw(port, "not-http\r\n\r\n");
  EXPECT_EQ(r.status, 400);

  EXPECT_GE(server.requests(), 7u);
  EXPECT_GE(server.rejected(), 4u);  // 404 + 405 + 413 + 400

  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.running());
}

TEST(DebugServerTest, HandlerExceptionsBecome500) {
  obs::DebugServer server;
  server.Handle("/boom", [](const obs::DebugServer::Request&) {
    throw std::runtime_error("handler bug");
    return obs::DebugServer::Response{};
  });
  ASSERT_TRUE(server.Start(0)) << server.error();
  const HttpResponse r = Get(server.port(), "/boom");
  EXPECT_EQ(r.status, 500);
}

// --- QueryService endpoints ------------------------------------------------

TEST(QueryServiceIntrospectionTest, EndpointsServeLiveState) {
  const Database db = BipartiteRstDatabase(3, 0.4);
  ServeOptions options;
  options.num_shards = 2;
  options.debug_port = 0;  // ephemeral
  QueryService service(options);
  const int port = service.debug_port();
  ASSERT_GT(port, 0) << service.debug_server()->error();

  // Warm state: a couple of plans on both routes.
  for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
    QueryRequest request;
    request.query = HierarchicalRSQuery();
    request.db = &db;
    request.route = route;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(service.Execute(request).status.ok());
    }
  }

  // /metrics: Prometheus exposition with HELP/TYPE and native histograms.
  HttpResponse r = Get(port, "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.headers["Content-Type"].find("text/plain"), std::string::npos);
  EXPECT_NE(r.body.find("# HELP serve_requests"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE serve_requests counter"), std::string::npos);
  EXPECT_NE(r.body.find("serve_requests 6"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE serve_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(r.body.find("serve_latency_us_bucket{le=\"+Inf\"} 6"),
            std::string::npos);
  EXPECT_NE(r.body.find("serve_latency_us_count 6"), std::string::npos);
  EXPECT_NE(r.body.find("debug_requests"), std::string::npos);

  // /healthz: all shards live.
  r = Get(port, "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.body.find("\"hung_shards\":0"), std::string::npos);

  // /statusz: uptime, totals, shard table.
  r = Get(port, "/statusz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"requests\":6"), std::string::npos);
  EXPECT_NE(r.body.find("\"plan_cache_size\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"shards\":["), std::string::npos);

  // /memz: depth-2 account tree with layer names.
  r = Get(port, "/memz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"governor\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"node_store\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"plan_cache\":"), std::string::npos);

  // /plansz: one row per live plan with its compiled shape (width and
  // nodes) next to its route, the SDD plan's vtree, and per-plan
  // evaluation counts.
  r = Get(port, "/plansz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"live_plans\":2"), std::string::npos);
  EXPECT_NE(r.body.find("\"width\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"nodes\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"route\":\"obdd\""), std::string::npos);
  EXPECT_NE(r.body.find("\"route\":\"sdd\""), std::string::npos);
  // Only the SDD plan names a vtree; this lineage has few variables.
  EXPECT_NE(r.body.find("\"vtree\":\"balanced\""), std::string::npos);
  EXPECT_EQ(r.body.find("\"vtree\":"), r.body.rfind("\"vtree\":"));
  // Each plan served 3 evaluations; conservation sums live + evicted.
  EXPECT_NE(r.body.find("\"total_evaluations\":6"), std::string::npos);

  // /flightz: the ring has one record per request.
  r = Get(port, "/flightz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"records\":"), std::string::npos);

  // /tracez: arms, captures, and returns Chrome trace JSON.
  r = Get(port, "/tracez?ms=30");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_TRUE(r.headers.count("X-Trace-Dropped"));

  // /profilez: collapsed stacks with exact capture accounting in
  // headers. Drive load during the window so CPU timers actually fire.
  std::atomic<bool> stop{false};
  std::thread load([&] {
    QueryRequest request;
    request.query = HierarchicalRSQuery();
    request.db = &db;
    request.route = PlanRoute::kSdd;
    while (!stop.load(std::memory_order_relaxed)) {
      service.Execute(request);
    }
  });
  r = Get(port, "/profilez?ms=200");
  stop.store(true);
  load.join();
  if (obs::Profiler::Supported()) {
    EXPECT_EQ(r.status, 200);
    ASSERT_TRUE(r.headers.count("X-Profile-Samples"));
    ASSERT_TRUE(r.headers.count("X-Profile-Dropped"));
    ASSERT_TRUE(r.headers.count("X-Profile-Attempted"));
    const uint64_t samples = std::stoull(r.headers["X-Profile-Samples"]);
    const uint64_t dropped = std::stoull(r.headers["X-Profile-Dropped"]);
    const uint64_t attempted = std::stoull(r.headers["X-Profile-Attempted"]);
    EXPECT_EQ(attempted, samples + dropped);
    if (samples > 0) {
      // Collapsed lines are "thread;frame;... count".
      EXPECT_NE(r.body.find(' '), std::string::npos);
      EXPECT_NE(r.body.find(';'), std::string::npos);
    }
  } else {
    EXPECT_EQ(r.status, 501);
  }
}

TEST(QueryServiceIntrospectionTest, DisabledByDefaultAndIdleIsFree) {
  QueryService service;  // debug_port defaults to -1
  EXPECT_EQ(service.debug_port(), -1);
  EXPECT_EQ(service.debug_server(), nullptr);
}

// --- Plan-stats conservation ----------------------------------------------

TEST(PlanStatsRegistryTest, EvictionMergesWithoutLosingMass) {
  obs::MetricsRegistry metrics;
  PlanStatsRegistry registry(&metrics);
  auto a = std::make_shared<PlanStats>();
  auto b = std::make_shared<PlanStats>();
  for (int i = 0; i < 10; ++i) a->wmc_us.Record(5);
  for (int i = 0; i < 4; ++i) b->wmc_us.Record(1000);
  a->hits.store(9);
  b->hits.store(3);
  registry.Register(a);
  registry.Register(b);
  EXPECT_EQ(registry.live_plans(), 2u);

  registry.OnEviction(a);
  EXPECT_EQ(registry.live_plans(), 1u);
  EXPECT_EQ(registry.evicted_plans(), 1u);
  EXPECT_EQ(registry.evicted_wmc_us().count(), 10u);
  EXPECT_EQ(registry.evicted_wmc_us().sum(), 50u);

  registry.OnEviction(b);
  EXPECT_EQ(registry.live_plans(), 0u);
  EXPECT_EQ(registry.evicted_plans(), 2u);
  // Lossless merge: bucket mass and sums of both plans, nothing dropped.
  EXPECT_EQ(registry.evicted_wmc_us().count(), 14u);
  EXPECT_EQ(registry.evicted_wmc_us().sum(), 50u + 4000u);

  // Evicting a block twice must not double-count (the cache calls the
  // hook exactly once per entry, but the invariant is cheap to keep).
  registry.OnEviction(a);
  EXPECT_EQ(registry.evicted_wmc_us().count(), 24u);
}

TEST(PlanStatsConservationTest, CacheTurnoverLosesNoHistogramMass) {
  const int kDomain = 6;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 1;           // deterministic eviction pressure
  options.plan_cache_capacity = 2;  // constant turnover
  QueryService service(options);

  uint64_t ok = 0;
  for (int round = 0; round < 8; ++round) {
    for (int c = 1; c <= kDomain; ++c) {
      QueryRequest request;
      request.query = PerConstantRsQuery(c);
      request.db = &db;
      request.route = c % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      const QueryResponse response = service.Execute(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ++ok;
    }
  }

  PlanStatsRegistry* registry = service.plan_stats();
  uint64_t live_evals = 0;
  for (const auto& plan : registry->Snapshot()) {
    live_evals += plan->evaluations();
  }
  // Every successful request recorded exactly one WMC sample, and every
  // eviction merged its plan's histogram: live + evicted == total.
  EXPECT_EQ(live_evals + registry->evicted_wmc_us().count(), ok);
  EXPECT_GT(registry->evicted_plans(), 0u);  // turnover actually happened
  EXPECT_LE(registry->live_plans(), options.plan_cache_capacity);
}

// --- Concurrent scrape during chaos (the TSan target) ---------------------

TEST(QueryServiceIntrospectionTest, ConcurrentScrapeDuringChaosStaysExact) {
  const int kDomain = 4;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 3;
  options.compile_node_budget = 600;  // ladder hops + budget aborts
  options.max_queue_depth = 8;
  options.debug_port = 0;
  QueryService service(options);
  const int port = service.debug_port();
  ASSERT_GT(port, 0);
  if (fault::Enabled()) {
    fault::FaultSpec stall;
    stall.probability = 0.05;
    stall.seed = 20260807;
    stall.delay_ms = 1;
    fault::Arm("serve.shard.process", stall);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    const std::vector<std::string> paths = {"/metrics", "/healthz",
                                            "/statusz", "/memz",
                                            "/plansz", "/flightz"};
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const HttpResponse r = Get(port, paths[i++ % paths.size()]);
      // Health may legitimately report 503 mid-chaos; everything else
      // must serve. No torn responses, ever.
      EXPECT_TRUE(r.status == 200 || r.status == 503) << r.status;
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::map<uint64_t, double> oracle;
  for (int round = 0; round < 20; ++round) {
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 6; ++i) {
      QueryRequest request;
      request.query = PerConstantRsQuery(1 + (round * 6 + i) % kDomain);
      request.db = &db;
      request.route =
          (round + i) % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      batch.push_back(std::move(request));
    }
    const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
    for (size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].status.ok()) continue;  // typed shed/abort is fine
      const uint64_t sig = QuerySignature(batch[i].query);
      if (oracle.find(sig) == oracle.end()) {
        const auto compiled =
            CompileQuery(batch[i].query, db, VtreeStrategy::kBalanced);
        ASSERT_TRUE(compiled.ok());
        oracle[sig] = compiled->probability;
      }
      ASSERT_NEAR(responses[i].probability, oracle[sig], 1e-9);
    }
  }
  stop.store(true);
  scraper.join();
  if (fault::Enabled()) fault::DisarmAll();
  EXPECT_GT(scrapes.load(), 0);
}

}  // namespace
}  // namespace ctsdd
