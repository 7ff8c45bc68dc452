// Tests for the obs/ observability substrate: log-linear histogram
// exactness against a sorted-vector oracle, lossless merge, registry
// dumps, flight-recorder ring/anomaly semantics, and tracing — context
// propagation across the exec fork/steal hand-off, the serve shard
// hand-off, and the supervisor's restart race (exactly one terminal span
// per request), plus ring-buffer wraparound accounting.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "db/query.h"
#include "db/query_compile.h"
#include "exec/task_pool.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_service.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace ctsdd {
namespace {

// The oracle rank ValueAtPercentile documents: nearest rank over n
// samples, clamped to the last one.
size_t OracleRank(double p, size_t n) {
  const auto rank = static_cast<size_t>(p * static_cast<double>(n - 1) + 0.5);
  return std::min(n - 1, rank);
}

constexpr double kPercentiles[] = {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};

TEST(HistogramTest, SmallValuesAreExactAgainstSortedOracle) {
  obs::Histogram h;
  Rng rng(20260807);
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Everything below 2^(kSubBits+1) maps to its own bucket.
    values.push_back(rng.NextBelow(2 * obs::Histogram::kSubCount));
    h.Record(values.back());
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
  for (const double p : kPercentiles) {
    EXPECT_EQ(h.ValueAtPercentile(p), values[OracleRank(p, values.size())])
        << "p=" << p;
  }
}

TEST(HistogramTest, WideRangeStaysBucketExactAgainstSortedOracle) {
  obs::Histogram h;
  Rng rng(42);
  std::vector<uint64_t> values;
  uint64_t sum = 0;
  for (int i = 0; i < 20000; ++i) {
    // Mixed magnitudes: exact range, microsecond-ish, up to ~2^44.
    const int width = rng.NextInt(1, 44);
    const uint64_t v = rng.Next64() >> (64 - width);
    values.push_back(v);
    sum += v;
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
  for (const double p : kPercentiles) {
    const uint64_t oracle = values[OracleRank(p, values.size())];
    const uint64_t got = h.ValueAtPercentile(p);
    // The histogram must return the representative of the exact bucket
    // the oracle value lives in — never an adjacent bucket.
    EXPECT_EQ(obs::Histogram::BucketIndex(got),
              obs::Histogram::BucketIndex(oracle))
        << "p=" << p << " oracle=" << oracle << " got=" << got;
    // Which bounds the relative error by the documented bucket width.
    const double bound =
        static_cast<double>(oracle) / obs::Histogram::kSubCount + 1.0;
    EXPECT_NEAR(static_cast<double>(got), static_cast<double>(oracle), bound)
        << "p=" << p;
  }
}

TEST(HistogramTest, MergeIsLosslessBucketwise) {
  obs::Histogram parts[3];
  obs::Histogram reference;
  Rng rng(7);
  for (int i = 0; i < 9000; ++i) {
    const int width = rng.NextInt(1, 40);
    const uint64_t v = rng.Next64() >> (64 - width);
    parts[i % 3].Record(v);
    reference.Record(v);
  }
  obs::Histogram merged;
  for (const obs::Histogram& part : parts) merged.Merge(part);
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.sum(), reference.sum());
  EXPECT_EQ(merged.min(), reference.min());
  EXPECT_EQ(merged.max(), reference.max());
  for (size_t i = 0; i < obs::Histogram::kBucketCount; ++i) {
    ASSERT_EQ(merged.bucket(i), reference.bucket(i)) << "bucket " << i;
  }
  for (const double p : kPercentiles) {
    EXPECT_EQ(merged.ValueAtPercentile(p), reference.ValueAtPercentile(p))
        << "p=" << p;
  }
}

TEST(MetricsRegistryTest, StablePointersAndDumps) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("test.requests");
  EXPECT_EQ(registry.GetCounter("test.requests"), c);
  c->Add(3);
  registry.GetGauge("test.live")->Set(-5);
  obs::Histogram* h = registry.GetHistogram("test.latency_us");
  h->Record(10);
  h->Record(20);

  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"test.requests\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.live\": -5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.latency_us\": {\"count\": 2"),
            std::string::npos)
      << json;

  const std::string prom = registry.PrometheusText();
  EXPECT_NE(prom.find("# HELP test_requests"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_requests counter"), std::string::npos);
  EXPECT_NE(prom.find("test_requests 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_live gauge"), std::string::npos);
  EXPECT_NE(prom.find("test_live -5"), std::string::npos);
  // Histograms use native Prometheus exposition: cumulative le buckets
  // ending in +Inf, with _count equal to the +Inf bucket.
  EXPECT_NE(prom.find("# TYPE test_latency_us histogram"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_us_bucket{le=\""), std::string::npos);
  EXPECT_NE(prom.find("test_latency_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("test_latency_us_sum 30"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_us_count 2"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusHistogramBucketsAreCumulative) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("hist", "help text");
  // Values straddling several power-of-two boundaries.
  for (const uint64_t v : {0ull, 1ull, 3ull, 7ull, 100ull, 5000ull}) {
    h->Record(v);
  }
  const std::string prom = registry.PrometheusText();
  // le="0" sees the single zero; le="1" sees two; le="3" sees three.
  EXPECT_NE(prom.find("hist_bucket{le=\"0\"} 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("hist_bucket{le=\"1\"} 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("hist_bucket{le=\"3\"} 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("hist_bucket{le=\"7\"} 4"), std::string::npos) << prom;
  EXPECT_NE(prom.find("hist_bucket{le=\"+Inf\"} 6"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hist_count 6"), std::string::npos) << prom;
  // HELP precedes TYPE and carries the registered help string.
  const size_t help_pos = prom.find("# HELP hist help text");
  const size_t type_pos = prom.find("# TYPE hist histogram");
  ASSERT_NE(help_pos, std::string::npos) << prom;
  ASSERT_NE(type_pos, std::string::npos) << prom;
  EXPECT_LT(help_pos, type_pos);
}

// --- Flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, RingKeepsNewestRecordsOldestFirst) {
  obs::FlightRecorder::Options options;
  options.capacity = 8;
  obs::FlightRecorder flight(options);
  for (uint64_t i = 0; i < 20; ++i) {
    obs::FlightRecord r;
    r.query_sig = i;
    flight.Record(r);
  }
  EXPECT_EQ(flight.records(), 20u);
  const std::vector<obs::FlightRecord> ring = flight.Snapshot();
  ASSERT_EQ(ring.size(), 8u);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].query_sig, 12 + i);
  }
}

TEST(FlightRecorderTest, AnomaliesCountAndDumpsAreRateLimited) {
  obs::FlightRecorder::Options options;
  options.capacity = 4;
  options.min_dump_interval_ms = 1e9;  // at most one dump in this test
  obs::FlightRecorder flight(options);
  obs::FlightRecord r;
  r.query_sig = 99;
  r.status_code = 6;
  flight.Record(r);

  flight.NoteAnomaly(obs::Anomaly::kQuarantineStrike, "sig 99 struck out");
  flight.NoteAnomaly(obs::Anomaly::kMemoryDenial, "governor said no");
  EXPECT_EQ(flight.anomalies(), 2u);
  EXPECT_EQ(flight.anomaly_count(obs::Anomaly::kQuarantineStrike), 1u);
  EXPECT_EQ(flight.anomaly_count(obs::Anomaly::kMemoryDenial), 1u);
  EXPECT_EQ(flight.dumps(), 1u);  // the second trigger was rate-limited
  const std::string dump = flight.last_dump_json();
  EXPECT_NE(dump.find("quarantine_strike"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"query_sig\": \"0000000000000063\""),
            std::string::npos)
      << dump;

  // The latency-outlier trigger fires from Record once a bar is set.
  flight.SetLatencyOutlierMs(1.0);
  obs::FlightRecord slow;
  slow.total_ms = 50.0;
  flight.Record(slow);
  EXPECT_EQ(flight.anomaly_count(obs::Anomaly::kLatencyOutlier), 1u);
  EXPECT_EQ(flight.anomalies(), 3u);
}

// --- Tracing --------------------------------------------------------------

struct NamedEvent {
  obs::TraceEvent event;
  int tid = 0;
};

std::vector<NamedEvent> SnapshotNamed() {
  std::vector<int> tids;
  const std::vector<obs::TraceEvent> events = obs::Tracer::Snapshot(&tids);
  std::vector<NamedEvent> out(events.size());
  for (size_t i = 0; i < events.size(); ++i) out[i] = {events[i], tids[i]};
  return out;
}

bool Is(const obs::TraceEvent& e, char phase, const char* name) {
  return e.phase == phase && e.name != nullptr &&
         std::strcmp(e.name, name) == 0;
}

// Skips a test body in -DCTSDD_TRACE=OFF builds, where every guard is a
// compile-time false and no events can record.
#ifdef CTSDD_NO_TRACE
#define CTSDD_REQUIRE_TRACING() GTEST_SKIP() << "tracing compiled out"
#else
#define CTSDD_REQUIRE_TRACING() \
  do {                          \
  } while (false)
#endif

// Fork/steal hand-off: every task forked under a root span must see that
// root's trace id as its ambient context, no matter which thread ran it.
TEST(TraceTest, ForkedTasksInheritTheForkersContext) {
  CTSDD_REQUIRE_TRACING();
  obs::Tracer::Clear();
  obs::Tracer::Arm(size_t{1} << 14);
  constexpr size_t kTasks = 256;
  std::vector<obs::TraceContext> seen(kTasks);
  const obs::TraceContext root_ctx{obs::NewTraceId(), 0};
  uint32_t root_span = 0;
  {
    exec::TaskPool pool(4);
    obs::TraceSpan root("test", "root", root_ctx);
    root_span = root.span_id();
    exec::ParallelFor(&pool, kTasks, [&](size_t i) {
      seen[i] = obs::CurrentContext();
    });
  }
  obs::Tracer::Disarm();
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(seen[i].trace_id, root_ctx.trace_id) << "task " << i;
    EXPECT_NE(seen[i].span_id, 0u) << "task " << i;
  }
  // Every recorded exec.task span parents under the root span, even when
  // the task was stolen and ran on a pool thread.
  size_t task_events = 0;
  for (const NamedEvent& ne : SnapshotNamed()) {
    if (!Is(ne.event, 'X', "exec.task")) continue;
    if (ne.event.trace_id != root_ctx.trace_id) continue;
    ++task_events;
    EXPECT_EQ(ne.event.parent_span, root_span);
  }
  // ParallelFor forks kTasks - 1 tasks (one chunk runs inline).
  EXPECT_EQ(task_events, kTasks - 1);
  obs::Tracer::Clear();
}

// Shard hand-off: a traced batch produces one async request track per
// request (exactly one begin and one terminal end), and every worker-side
// span is parented into the request it serves.
TEST(TraceTest, ServiceSpansParentAcrossTheShardHandOff) {
  CTSDD_REQUIRE_TRACING();
  obs::Tracer::Clear();
  obs::Tracer::Arm(size_t{1} << 15);
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 2;
  options.exec_workers = 2;
  size_t batch_size = 0;
  {
    QueryService service(options);
    std::vector<QueryRequest> batch;
    for (int rep = 0; rep < 3; ++rep) {
      for (int c = 1; c <= 4; ++c) {
        QueryRequest request;
        request.query = PerConstantRsQuery(c);
        request.db = &db;
        request.route = (rep + c) % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
        batch.push_back(std::move(request));
      }
    }
    batch_size = batch.size();
    const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
    for (const QueryResponse& response : responses) {
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    }
  }
  obs::Tracer::Disarm();

  const std::vector<NamedEvent> events = SnapshotNamed();
  std::map<uint64_t, int> begins, ends;
  std::map<uint32_t, uint64_t> process_spans;  // span_id -> trace_id
  for (const NamedEvent& ne : events) {
    if (Is(ne.event, 'b', "request")) ++begins[ne.event.trace_id];
    if (Is(ne.event, 'e', "request")) ++ends[ne.event.trace_id];
    if (Is(ne.event, 'X', "shard.process")) {
      process_spans[ne.event.span_id] = ne.event.trace_id;
    }
  }
  EXPECT_EQ(begins.size(), batch_size);
  for (const auto& [trace_id, n] : begins) {
    EXPECT_EQ(n, 1) << "trace " << trace_id;
    EXPECT_EQ(ends[trace_id], 1) << "trace " << trace_id;
  }
  // Every shard.process belongs to an admitted request, and every wmc /
  // compile span sits directly under its request's shard.process.
  size_t wmc = 0, compiles = 0;
  for (const NamedEvent& ne : events) {
    if (Is(ne.event, 'X', "shard.process")) {
      EXPECT_EQ(begins.count(ne.event.trace_id), 1u);
      continue;
    }
    const bool is_wmc = Is(ne.event, 'X', "wmc");
    const bool is_compile = Is(ne.event, 'X', "compile");
    if (!is_wmc && !is_compile) continue;
    is_wmc ? ++wmc : ++compiles;
    const auto parent = process_spans.find(ne.event.parent_span);
    ASSERT_NE(parent, process_spans.end())
        << ne.event.name << " parent " << ne.event.parent_span;
    EXPECT_EQ(parent->second, ne.event.trace_id) << ne.event.name;
  }
  EXPECT_GE(wmc, batch_size);  // one weighted count per accepted request
  EXPECT_GT(compiles, 0u);     // the cold signatures compiled
  obs::Tracer::Clear();
}

// Restart race: a compile stalled past the heartbeat window makes the
// supervisor fail the request typed UNAVAILABLE; the woken worker then
// loses the claim. Two parties completed one request, and only the claim
// winner emits its terminal span.
TEST(TraceTest, RestartRaceKeepsExactlyOneTerminalSpan) {
  CTSDD_REQUIRE_TRACING();
  obs::Tracer::Clear();
  obs::Tracer::Arm(size_t{1} << 15);
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.heartbeat_window_ms = 20;
  uint64_t duplicate_skips = 0;
  {
    QueryService service(options);
    fault::FaultSpec stall;
    stall.fire_at = 1;
    stall.delay_ms = 150;  // far past the heartbeat window: a hang verdict
    fault::Arm("serve.compile.route", stall);
    QueryRequest request;
    request.query = HierarchicalRSQuery();
    request.db = &db;
    request.route = PlanRoute::kSdd;
    const QueryResponse response = service.Execute(request);
    fault::DisarmAll();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable)
        << response.status.ToString();
    // Wait for the stalled worker to wake and lose the claim.
    for (int spin = 0; spin < 200; ++spin) {
      duplicate_skips = service.stats().totals.duplicate_skips;
      if (duplicate_skips >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }  // the supervisor joins the carcass: its spans are closed
  obs::Tracer::Disarm();
  EXPECT_GE(duplicate_skips, 1u);

  const std::vector<NamedEvent> events = SnapshotNamed();
  uint64_t trace_id = 0;
  int begins = 0, ends = 0, processed = 0;
  for (const NamedEvent& ne : events) {
    if (Is(ne.event, 'b', "request")) {
      ++begins;
      trace_id = ne.event.trace_id;
    }
    if (Is(ne.event, 'e', "request")) ++ends;
  }
  ASSERT_NE(trace_id, 0u);
  for (const NamedEvent& ne : events) {
    if (Is(ne.event, 'X', "shard.process") && ne.event.trace_id == trace_id) {
      ++processed;
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1) << "the claim winner must own the only terminal span";
  // The losing worker processed the request under the same trace id.
  EXPECT_EQ(processed, 1);
  obs::Tracer::Clear();
}

// Last in the file: arms with a deliberately tiny ring, which sticks for
// any thread whose buffer is first touched while it is in force.
TEST(TraceTest, RingBufferWrapsAndCountsDrops) {
  CTSDD_REQUIRE_TRACING();
  obs::Tracer::Clear();
  obs::Tracer::Arm(/*events_per_thread=*/16);
  std::thread recorder([] {
    obs::SetCurrentThreadName("wrap-test");
    for (uint64_t i = 0; i < 50; ++i) {
      obs::TraceInstant("test", "wrap.evt", {}, "i", i);
    }
  });
  recorder.join();
  obs::Tracer::Disarm();

  std::vector<uint64_t> kept;
  for (const NamedEvent& ne : SnapshotNamed()) {
    if (Is(ne.event, 'i', "wrap.evt")) kept.push_back(ne.event.arg1);
  }
  // The ring holds the newest 16 events, oldest-first, and the 34
  // overwritten ones are accounted as drops.
  ASSERT_EQ(kept.size(), 16u);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i], 34 + i);
  }
  EXPECT_EQ(obs::Tracer::Dropped(), 34u);
  obs::Tracer::Clear();
  EXPECT_EQ(obs::Tracer::Dropped(), 0u);
}

}  // namespace
}  // namespace ctsdd
